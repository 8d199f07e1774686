open Sw_core
module Config = Sw_arch.Config
module Json = Sw_obs.Json

type record = {
  shape_class : string;
  mesh_class : string;
  winner : Space.candidate;
  gflops : float;
  default_gflops : float;
  measured : int;
  pruned : int;
}

type t = { store : Sw_host.Store.t }

let schema = "swgemm-tune-v2"

let open_ ?budget_bytes ~dir () =
  { store = Sw_host.Store.open_ ?budget_bytes ~schema ~dir () }

(* ------------------------------------------------------------------ *)
(* Key derivation                                                       *)
(* ------------------------------------------------------------------ *)

let pow2_ceil v =
  let rec go p = if p >= v then p else go (2 * p) in
  if v <= 1 then 1 else go 1

let shape_class (spec : Spec.t) =
  let fusion =
    match spec.Spec.fusion with
    | Spec.No_fusion -> "none"
    | Spec.Prologue fn -> "prologue:" ^ fn
    | Spec.Epilogue fn -> "epilogue:" ^ fn
  in
  Printf.sprintf "m%d:n%d:k%d:b%d:t%c%c:f=%s" (pow2_ceil spec.Spec.m)
    (pow2_ceil spec.Spec.n) (pow2_ceil spec.Spec.k)
    (pow2_ceil (Option.value spec.Spec.batch ~default:1))
    (if spec.Spec.ta then 'T' else 'N')
    (if spec.Spec.tb then 'T' else 'N')
    fusion

let mesh_class (c : Config.t) =
  Printf.sprintf
    "%dx%d/mk%dx%dx%d/spm%d/eff%g/freq%g/simd%g/bw%g/rma%g/lat%g"
    c.Config.mesh_rows c.Config.mesh_cols c.Config.mk_m c.Config.mk_n
    c.Config.mk_k c.Config.spm_bytes c.Config.micro_kernel_efficiency
    c.Config.cpe_freq_hz c.Config.cpe_simd_flops_per_cycle
    c.Config.mem_bw_bytes_per_s c.Config.rma_bw_bytes_per_s
    c.Config.dma_latency_s

let key_of_classes ~shape_class ~mesh_class =
  Digest.to_hex
    (Digest.string (schema ^ "\n" ^ shape_class ^ "\n" ^ mesh_class))

let key ~spec ~config =
  key_of_classes ~shape_class:(shape_class spec) ~mesh_class:(mesh_class config)

(* ------------------------------------------------------------------ *)
(* JSON codec                                                           *)
(* ------------------------------------------------------------------ *)

let record_to_json r =
  Json.Obj
    [
      ("shape_class", Json.String r.shape_class);
      ("mesh_class", Json.String r.mesh_class);
      ("winner", Space.candidate_to_json r.winner);
      ("gflops", Json.Float r.gflops);
      ("default_gflops", Json.Float r.default_gflops);
      ("measured", Json.Int r.measured);
      ("pruned", Json.Int r.pruned);
    ]

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None ->
      Error (Printf.sprintf "tune record: missing or ill-typed field %S" name)

let record_of_json j =
  let* shape_class = field "shape_class" Json.to_string_opt j in
  let* mesh_class = field "mesh_class" Json.to_string_opt j in
  let* winner =
    match Json.member "winner" j with
    | None -> Error "tune record: missing field \"winner\""
    | Some w ->
        Result.map_error (( ^ ) "tune record: ") (Space.candidate_of_json w)
  in
  let* gflops = field "gflops" Json.to_float_opt j in
  let* default_gflops = field "default_gflops" Json.to_float_opt j in
  let* measured = field "measured" Json.to_int_opt j in
  let* pruned = field "pruned" Json.to_int_opt j in
  Ok { shape_class; mesh_class; winner; gflops; default_gflops; measured; pruned }

(* ------------------------------------------------------------------ *)
(* Store traffic                                                        *)
(* ------------------------------------------------------------------ *)

let decode payload =
  match Json.parse payload with
  | Error _ -> None
  | Ok j -> ( match record_of_json j with Ok r -> Some r | Error _ -> None)

let find t ~spec ~config =
  let shape = shape_class spec and mesh = mesh_class config in
  match
    Sw_host.Store.get t.store ~key:(key_of_classes ~shape_class:shape ~mesh_class:mesh)
  with
  | None -> None
  | Some payload -> (
      match decode payload with
      | Some r when r.shape_class = shape && r.mesh_class = mesh -> Some r
      | _ -> None)

let put t r =
  Sw_host.Store.put t.store
    ~key:(key_of_classes ~shape_class:r.shape_class ~mesh_class:r.mesh_class)
    (Json.to_string (record_to_json r))

let records t =
  Sw_host.Store.fold t.store ~init:[] ~f:(fun acc ~key ~payload ->
      match decode payload with Some r -> (key, r) :: acc | None -> acc)
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let stats t = Sw_host.Store.stats t.store

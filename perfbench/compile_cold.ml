(* compile-cold: the paper's own path from naive C to athread C, one
   distinct spec at a time. A seeded stream of specs is rendered to naive
   C, recognised by the front end, compiled by the pass pipeline on a
   cacheless, storeless session and emitted as the MPE/CPE file pair, on
   one thread. The front end, the passes, AST generation and C emission
   do all the work; the simulator and the host layers do none. *)

open Common
open Sw_core

(* The calibrated machine and its mesh variants, as bench/main.ml's
   architecture series runs them. *)
let presets = [ "sw26010pro"; "sw26010pro-4x4"; "sw26010pro-8x4"; "sw26010pro-16x16" ]

type item = { preset : string; options : Options.t; spec : Spec.t; source : string }

(* The seeded stream of distinct (preset, options, spec) triples: a paper
   case, a preset and one of the four Options variants, each drawn
   uniformly. [seen] holds hashes of the triples drawn so far, not the
   triples, so the benchmark's memory barely grows with the number of
   compiles; a hash collision only costs a redraw. *)
type stream = { rng : Random.State.t; seen : (int, unit) Hashtbl.t }

let rec next st =
  let preset = pick st.rng presets in
  let options = snd (pick st.rng Options.breakdown) in
  let case = paper_cases.(Random.State.int st.rng (Array.length paper_cases)) in
  let arch = Option.get (Sw_arch.Arch_desc.config_of_name preset) in
  let spec = spec_of_case st.rng arch case in
  let h = Hashtbl.hash_param 64 256 (preset, options, spec) in
  if Hashtbl.mem st.seen h then next st
  else begin
    Hashtbl.replace st.seen h ();
    { preset; options; spec; source = Sw_check.Csrc.render spec }
  end

let batch_size = 64

type setup = { stream : stream; sessions : (string * Options.t, Session.t) Hashtbl.t }

(* The all-on 512^3 plan on the calibrated machine emits the committed
   golden C byte for byte. *)
let golden_check () =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let session = Session.create ~no_cache:true ~arch:Sw_arch.Config.sw26010pro () in
  match Session.run session (Spec.make ~m:512 ~n:512 ~k:512 ()) with
  | Error e -> check false ("golden compile: " ^ Sw_arch.Error.to_string e)
  | Ok c ->
      check
        (Cemit.mpe_file c = read "test/golden/gemm512_mpe.c"
        && Cemit.cpe_file c = read "test/golden/gemm512_cpe.c")
        "512^3 all-on C differs from test/golden/gemm512_{mpe,cpe}.c"

(* A cacheless session per preset and Options variant, and the golden
   check. *)
let setup seed () =
  let stream = { rng = Random.State.make [| seed |]; seen = Hashtbl.create 4096 } in
  let sessions = Hashtbl.create 32 in
  List.iter
    (fun preset ->
      let arch = Option.get (Sw_arch.Arch_desc.config_of_name preset) in
      List.iter
        (fun (_, options) ->
          Hashtbl.replace sessions (preset, options) (Session.create ~no_cache:true ~options ~arch ()))
        Options.breakdown)
    presets;
  golden_check ();
  { stream; sessions }

let fbindings (spec : Spec.t) = [ ("alpha", spec.Spec.alpha); ("beta", spec.Spec.beta) ]

(* One operation: recognise, compile, emit. Correct when the recognised
   spec is the one rendered and compilation succeeds. *)
let compile_one st item =
  let session = Hashtbl.find st.sessions (item.preset, item.options) in
  let t0 = now () in
  let recognised =
    timed "frontend.recognize" (fun () ->
        Sw_frontend.Extract.spec_of_source ~fbindings:(fbindings item.spec) item.source)
  in
  let ok =
    match recognised with
    | Error e ->
        check false ("recognise: " ^ e);
        false
    | Ok spec when spec <> item.spec ->
        check false
          (Printf.sprintf "recognised [%s], rendered [%s]" (Spec.to_string spec)
             (Spec.to_string item.spec));
        false
    | Ok spec -> (
        let minor0 = Gc.minor_words () in
        let compiled = timed "compile.pipeline" (fun () -> Compile.run session spec) in
        let minor = Gc.minor_words () -. minor0 in
        match compiled with
        | Error e ->
            check false ("compile: " ^ Sw_arch.Error.to_string e);
            false
        | Ok c ->
            let mpe, cpe = timed "cemit" (fun () -> (Cemit.mpe_file c, Cemit.cpe_file c)) in
            check true "";
            if traced () then begin
              record_count "compile.minor_kwords" (minor /. 1000.0);
              record_count "cemit.kbytes"
                (float_of_int (String.length mpe + String.length cpe) /. 1024.0);
              record_count "compile.tree_nodes"
                (float_of_int
                   (List.fold_left (fun a s -> max a s.Pass.nodes_after) 0 c.Compile.pass_stats));
              List.iter
                (fun s -> if s.Pass.ran then record ("pass." ^ s.Pass.pass) s.Pass.seconds)
                c.Compile.pass_stats;
              record "passes"
                (List.fold_left (fun a s -> a +. s.Pass.seconds) 0.0 c.Compile.pass_stats)
            end;
            true)
  in
  record "op" (now () -. t0);
  ok

(* Timed batches of [batch_size] specs, each rendered between
   repetitions (untimed). [keep] returns the batches run, for a [replay]
   that re-runs them instead. *)
let phase ?(keep = false) st ~seconds ~replay =
  let pending = ref (Option.value replay ~default:[]) in
  let ran = ref [] in
  let batch () =
    let items =
      match !pending with
      | b :: rest ->
          pending := rest;
          b
      | [] -> List.init batch_size (fun _ -> next st.stream)
    in
    if keep then ran := items :: !ran;
    let (), dt = clock (fun () -> List.iter (fun i -> ignore (compile_one st i)) items) in
    (List.length items, dt)
  in
  let ops, cal, raw =
    timed_phase ?reps:(Option.map List.length replay) ~seconds ~min_ops:min_tail_samples
      batch
  in
  (ops, cal, raw, List.rev !ran)

let run ~seed ~seconds ~trace =
  let st, setup_s = timed_setup (fun () -> calibrated (setup seed)) in
  if not trace then begin
    let ops, cal, raw, _ = phase st ~seconds ~replay:None in
    let op = get "op" and rate = get "rate" in
    check_tail "op" op;
    Printf.eprintf "compile-cold: %d compiles, %.3f s calibrated (%.3f s raw)\n" ops cal raw;
    report_q "ops_per_s (median repetition)" rate 0.5;
    report_q "op p50 (s)" op 0.5;
    report_q "op p95 (s)" op tail_q;
    [
      metric "setup_s" setup_s;
      metric "ops_per_s" (median (cals rate));
      metric "op_ms_p50" (1e3 *. median (cals op));
      metric "op_ms_p95" (1e3 *. quantile (cals op) tail_q);
    ]
  end
  else begin
    (* Untraced first, then the very same batches traced. *)
    let ops_u, cal_u, _, ran = phase ~keep:true st ~seconds:(seconds /. 2.0) ~replay:None in
    Hashtbl.reset table;
    start_tracing ();
    let ops_t, cal_t, _, _ = phase st ~seconds ~replay:(Some ran) in
    stop_tracing "compile-cold";
    [
      metric "frontend.recognize_us_p50" (1e6 *. median (cals (get "frontend.recognize")));
      metric "compile.pipeline_ms_p50" (1e3 *. median (cals (get "compile.pipeline")));
      metric "compile.minor_kwords_p50" (median (cals (get "compile.minor_kwords")));
      metric "compile.tree_nodes_p50" (median (cals (get "compile.tree_nodes")));
      metric "cemit.us_p50" (1e6 *. median (cals (get "cemit")));
      metric "cemit.kbytes_p50" (median (cals (get "cemit.kbytes")));
      metric "frontend.busy_frac" (busy "frontend.recognize" cal_t);
      metric "passes.busy_frac" (busy "passes" cal_t);
      metric "cemit.busy_frac" (busy "cemit" cal_t);
      metric "trace.overhead_frac"
        ((cal_t /. float_of_int ops_t) /. (cal_u /. float_of_int ops_u) -. 1.0);
    ]
    @ List.map
        (fun p ->
          let name = p.Pass.name in
          metric ("pass." ^ name ^ "_us_p50") (1e6 *. median (cals (get ("pass." ^ name)))))
        (Pass.registered ())
  end

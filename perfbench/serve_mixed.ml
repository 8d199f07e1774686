(* serve-mixed: swgemmd under closed-loop load. Set-up fills a fresh
   durable store with the working set's plans and starts the daemon on
   it (a warm start). Two connections of this process then
   each send their next compile request as soon as the last one is
   answered. Requests are Zipf-skewed over a working set larger than
   the daemon's 64-plan cache, so they mix memory hits (which still
   re-emit C), store reads of evicted plans and 10% never-seen specs
   that take the cold pipeline and a store write. The plan cache,
   store, wire and server do the work; the simulator is absent. The
   traced run then replays the first client's requests through
   Service.handle and the wire codec in this process, where the time of
   each layer can be taken. *)

open Common
open Sw_core
module Json = Sw_obs.Json

(* ------------------------------------------------------------------ *)
(* The daemon                                                           *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; out : in_channel; socket : string; ready_s : float }

let live : daemon list ref = ref []

(* Start swgemmd and block on its "ready" line: no sleeps, no polling. *)
let spawn exe ~socket ~store =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process exe
      [| exe; "--socket"; socket; "--store"; store; "--rate-limit"; "0" |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let d = { pid; out; socket; ready_s = 0.0 } in
  live := d :: !live;
  let rec wait () =
    match input_line out with
    | "swgemmd: ready" -> ()
    | _ -> wait ()
    | exception End_of_file -> failwith "swgemmd exited before its ready line"
  in
  wait ();
  { d with ready_s = now () -. t0 }

let forget d = live := List.filter (fun d' -> d'.pid <> d.pid) !live

(* SIGTERM, then read stdout to EOF for the drained line and reap. *)
let drain d =
  Unix.kill d.pid Sys.sigterm;
  let rec read acc =
    match input_line d.out with line -> read (line :: acc) | exception End_of_file -> acc
  in
  let lines = read [] in
  ignore (Unix.waitpid [] d.pid);
  close_in d.out;
  forget d;
  match
    List.find_map
      (fun l ->
        try
          Some
            (Scanf.sscanf l
               "swgemmd: drained: %d request(s) served (%d errored, %d shed), %d connection(s)"
               (fun served errored shed _ -> (served, errored, shed)))
        with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
      lines
  with
  | Some r -> r
  | None -> failwith "swgemmd printed no drained line"

let kill_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* ------------------------------------------------------------------ *)
(* Requests                                                             *)
(* ------------------------------------------------------------------ *)

type request = { spec : Spec.t; options : Options.t; cold : bool }

(* The two traffic parameters are assumptions, not measurements of a
   real deployment: a Zipf exponent of 1.2 over 160 plans. What the
   workload needs from them is a mix of all three request paths: with
   LRU over 64 plans about a quarter of the Zipf draws miss the plan
   cache and read the store (plan_cache.hit_frac, never-seen requests
   included, and store.hit_frac in the traced run show what each seed
   got). *)
let working_set_size = 160
let zipf_s = 1.2

(* The share of never-seen specs, which take the cold pipeline. *)
let cold_share = 0.10

(* The [r]-th spec of a stream. What a request costs follows [r]: its
   paper case (a fixed stride through them, so the Zipf head mixes the
   figures) and option variant, so the Zipf head and the never-seen
   stream cost the same for every seed. The seed draws the requested
   sizes inside the padding and the transposes. *)
let gen_spec rng r =
  let n = Array.length paper_cases in
  let case = paper_cases.(r * 37 mod n) in
  let spec = spec_of_case rng Sw_arch.Config.sw26010pro case in
  (spec, snd (List.nth Options.breakdown ((r + (r / n)) mod 4)))

(* Distinct (spec, options) pairs across the working set and every
   never-seen request of the run. *)
let seen : (Spec.t * Options.t, unit) Hashtbl.t = Hashtbl.create 1024

let rec fresh rng r ~cold =
  let spec, options = gen_spec rng r in
  if Hashtbl.mem seen (spec, options) then fresh rng r ~cold
  else begin
    Hashtbl.replace seen (spec, options) ();
    { spec; options; cold }
  end

let params r = Json.Obj [ ("spec", Spec.to_json r.spec); ("options", Options.to_json r.options) ]

(* Digest of the C pair, from a response body or an in-process plan. *)
let digest_c mpe cpe = Digest.string (mpe ^ "\000" ^ cpe)

let response_digest body =
  match
    ( Option.bind (Json.member "mpe_c" body) Json.to_string_opt,
      Option.bind (Json.member "cpe_c" body) Json.to_string_opt )
  with
  | Some mpe, Some cpe -> Some (digest_c mpe cpe)
  | _ -> None

let local = lazy (Session.create ~no_cache:true ~arch:Sw_arch.Config.sw26010pro ())

let expected r =
  match Session.run (Session.with_options (Lazy.force local) r.options) r.spec with
  | Ok c -> Some (digest_c (Cemit.mpe_file c) (Cemit.cpe_file c))
  | Error _ -> None

(* Client [i]'s request stream: Zipf over the working set, or a
   never-seen spec. *)
type client = {
  rng : Random.State.t;
  conn : Sw_host.Client.t;
  mutable sent : request list;
  mutable cold_sent : int;
}
(* [sent] is newest first *)

let zipf_cdf =
  lazy
    (let w = Array.init working_set_size (fun r -> 1.0 /. (float_of_int (r + 1) ** zipf_s)) in
     let total = Array.fold_left ( +. ) 0.0 w in
     let acc = ref 0.0 in
     Array.map (fun x -> acc := !acc +. (x /. total); !acc) w)

let zipf ws c =
  let cdf = Lazy.force zipf_cdf in
  let u = Random.State.float c.rng 1.0 in
  let rec find lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then find (mid + 1) hi else find lo mid
  in
  ws.(find 0 (working_set_size - 1))

(* [n] requests of client [c]: exactly [cold_share] of them never-seen,
   at seeded positions, the rest Zipf draws. A fixed share per batch
   keeps every repetition's mix, and so its rate, alike. *)
let draw ws c n =
  let cold = int_of_float (Float.round (cold_share *. float_of_int n)) in
  let slots = Array.init n (fun i -> i < cold) in
  for i = n - 1 downto 1 do
    let j = Random.State.int c.rng (i + 1) in
    let t = slots.(i) in
    slots.(i) <- slots.(j);
    slots.(j) <- t
  done;
  Array.to_list
    (Array.map
       (fun is_cold ->
         if is_cold then begin
           c.cold_sent <- c.cold_sent + 1;
           fresh c.rng c.cold_sent ~cold:true
         end
         else zipf ws c)
       slots)

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)
(* ------------------------------------------------------------------ *)

let serve_dir = Filename.concat out_dir "serve"
let generation = ref 0
let warm_starts = ref []

let call conn r = Sw_host.Client.call conn ~meth:"compile" ~params:(params r) ()

(* Fill a fresh durable store with the working set's plans (in
   calibrated chunks of 16), then start the daemon on it: a warm start. *)
let setup exe ws () =
  incr generation;
  let path fmt = Printf.ksprintf (Filename.concat serve_dir) fmt in
  let store = path "store-%d" !generation in
  rm_rf store;
  let filler = Session.create ~store_dir:store ~arch:Sw_arch.Config.sw26010pro () in
  let fill_s =
    List.fold_left
      (fun acc chunk ->
        let (), dt =
          calibrated (fun () ->
              List.iter
                (fun r ->
                  match Session.run (Session.with_options filler r.options) r.spec with
                  | Ok _ -> ()
                  | Error e -> failwith ("set-up: " ^ Sw_arch.Error.to_string e))
                chunk)
        in
        acc +. dt)
      0.0
      (List.init (working_set_size / 16) (fun c -> List.init 16 (fun i -> ws.((16 * c) + i))))
  in
  let d, ready_s =
    calibrated (fun () -> spawn exe ~socket:(path "d-%d.sock" !generation) ~store)
  in
  warm_starts := d.ready_s :: !warm_starts;
  ((d, store), fill_s +. ready_s)

let teardown (b, store) =
  ignore (drain b);
  rm_rf store

(* ------------------------------------------------------------------ *)
(* Load                                                                 *)
(* ------------------------------------------------------------------ *)

let per_client_batch = 100

type outcome = { req : request; digest : Digest.t option; latency : float; error : string option }

(* One repetition: both clients send [per_client_batch] requests each,
   closed-loop, on their own threads (requests are drawn beforehand, on
   this thread). *)
let batch ws clients =
  let reqs =
    Array.map
      (fun c ->
        let rs = draw ws c per_client_batch in
        c.sent <- List.rev_append rs c.sent;
        rs)
      clients
  in
  let results = Array.make (Array.length clients) [] in
  let t0 = now () in
  let threads =
    Array.mapi
      (fun i c ->
        Thread.create
          (fun () ->
            results.(i) <-
              List.map
                (fun r ->
                  let res, latency = clock (fun () -> call c.conn r) in
                  match res with
                  | Ok body -> { req = r; digest = response_digest body; latency; error = None }
                  | Error e ->
                      let error = e.Sw_host.Wire.err_class ^ ": " ^ e.Sw_host.Wire.message in
                      { req = r; digest = None; latency; error = Some error })
                reqs.(i))
          ())
      clients
  in
  Array.iter Thread.join threads;
  let dt = now () -. t0 in
  let outs = List.concat (Array.to_list results) in
  List.iter
    (fun o ->
      record "op" o.latency;
      if o.req.cold then record "serve.cold" o.latency)
    outs;
  (outs, dt)

(* ------------------------------------------------------------------ *)
(* In-process layers (traced run)                                       *)
(* ------------------------------------------------------------------ *)

let replay_len = 600
let replay_chunk = 50

let arch = Sw_arch.Config.sw26010pro

let compile_ws session =
  Array.map
    (fun r ->
      match Session.run (Session.with_options session r.options) r.spec with
      | Ok c -> c
      | Error e -> failwith (Sw_arch.Error.to_string e))

let rec chunks n = function
  | [] -> []
  | l -> List.filteri (fun i _ -> i < n) l :: chunks n (List.filteri (fun i _ -> i >= n) l)

(* The daemon's request path in this process: Service.handle on a session
   warm-started from a freshly filled store, as the daemon is set up,
   then the wire codec on the real response frame, over [requests] in
   calibrated repetitions of [replay_chunk]. Returns the calibrated
   seconds of those calls. A traced replay also times, outside those
   seconds, the C emission of each response's plan once more: the
   emission Service.handle does inside, which no span can reach. *)
let replay ws requests name =
  let store_dir = Filename.concat serve_dir name in
  rm_rf store_dir;
  ignore (compile_ws (Session.create ~store_dir ~arch ()) ws);
  let session = Session.create ~store_dir ~arch () in
  ignore (Session.warm_start session);
  let service = Service.create ~session () in
  let serve_one (i, r) =
    let result =
      timed ~passes:true "service.handle" (fun () ->
          Service.handle ~client:"replay" ~meth:"compile" ~params:(params r) service)
    in
    let resp = Sw_host.Wire.response_of_result ~id:(string_of_int i) result in
    let frame = timed "wire.encode" (fun () -> Sw_host.Wire.encode_response resp) in
    if traced () then
      record_count "wire.frame_kbytes" (float_of_int (String.length frame) /. 1024.0);
    match timed "wire.decode" (fun () -> Sw_host.Wire.decode_response frame) with
    | Ok d -> check (Sw_host.Wire.encode_response d = frame) "wire round trip"
    | Error e -> check false ("wire decode: " ^ Sw_arch.Error.to_string e)
  in
  let reemit (_, r) =
    match Session.run (Session.with_options session r.options) r.spec with
    | Ok c -> ignore (timed "serve.cemit" (fun () -> (Cemit.mpe_file c, Cemit.cpe_file c)))
    | Error e -> check false ("replay re-emit: " ^ Sw_arch.Error.to_string e)
  in
  let total =
    List.fold_left
      (fun acc chunk ->
        let dt, factor =
          repetition (fun () ->
              List.fold_left
                (fun dt req ->
                  let (), d = clock (fun () -> serve_one req) in
                  if traced () then reemit req;
                  dt +. d)
                0.0 chunk)
        in
        acc +. (dt *. factor))
      0.0
      (chunks replay_chunk (List.mapi (fun i r -> (i, r)) requests))
  in
  rm_rf store_dir;
  total

(* Plan-cache hits, store get/put/decode of the working set's plan
   images and C emission of the same plans, each called directly. *)
let layers ws =
  let warm = Session.create ~capacity:(2 * working_set_size) ~arch () in
  let plans = compile_ws warm ws in
  let images = Array.map Compile.encode_plan plans in
  let dir = Filename.concat serve_dir "layer-store" in
  let layer_store = Sw_host.Store.open_ ~schema:Compile.store_schema ~dir () in
  let (), _ =
    repetition (fun () ->
        Array.iteri
          (fun i r ->
            ignore
              (timed "plan_cache.hit" (fun () ->
                   Session.run (Session.with_options warm r.options) r.spec));
            let key = string_of_int i in
            timed "store.put" (fun () -> Sw_host.Store.put layer_store ~key images.(i));
            let got = timed "store.get" (fun () -> Sw_host.Store.get layer_store ~key) in
            check (got = Some images.(i)) "store get after put";
            ignore (timed "store.decode" (fun () -> Compile.decode_plan images.(i)));
            let mpe, cpe = timed "cemit" (fun () -> (Cemit.mpe_file plans.(i), Cemit.cpe_file plans.(i))) in
            record_count "cemit.kbytes" (float_of_int (String.length mpe + String.length cpe) /. 1024.0))
          ws)
  in
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* The workload                                                         *)
(* ------------------------------------------------------------------ *)

let int_member name json = Option.bind (Json.member name json) Json.to_int_opt

let run ~daemon ~seed ~seconds ~trace =
  if not (Sys.file_exists daemon) then failwith ("no swgemmd at " ^ daemon);
  calib_cores := 2;
  rm_rf serve_dir;
  mkdir_p serve_dir;
  let rng = Random.State.make [| seed |] in
  let ws = Array.init working_set_size (fun r -> fresh rng r ~cold:false) in
  let expect = Array.map (fun r -> Option.get (expected r)) ws in
  let (d, store), setup_s = timed_setup ~teardown (setup daemon ws) in
  let clients =
    Array.init 2 (fun i ->
        {
          rng = Random.State.make [| seed; i + 1 |];
          conn = Sw_host.Client.connect_unix ~path:d.socket;
          sent = [];
          cold_sent = 0;
        })
  in
  let outcomes = ref [] in
  let ops, cal, raw =
    timed_phase ~seconds ~min_ops:min_tail_samples (fun () ->
        let outs, dt = batch ws clients in
        outcomes := List.rev_append outs !outcomes;
        (List.length outs, dt))
  in
  let stat =
    match Sw_host.Client.call clients.(0).conn ~meth:"stat" ~params:Json.Null () with
    | Ok s -> s
    | Error e -> failwith ("stat: " ^ e.Sw_host.Wire.message)
  in
  let rss = peak_rss_mb (string_of_int d.pid) in
  Array.iter (fun c -> Sw_host.Client.close c.conn) clients;
  let _, errored, shed = drain d in
  rm_rf store;
  let section name = Option.value (Json.member name stat) ~default:Json.Null in
  let cache = section "cache" and st = section "store" in
  let served_corrupt = int_member "served_corrupt" st in
  check (served_corrupt = Some 0) "stat: served_corrupt is not 0";
  check (errored = 0 && shed = 0)
    (Printf.sprintf "drain: %d errored, %d shed" errored shed);
  (* every response carries the C an in-process compile emits *)
  let index = Hashtbl.create 256 in
  Array.iteri (fun i r -> Hashtbl.replace index (r.spec, r.options) expect.(i)) ws;
  List.iter
    (fun o ->
      match o.error with
      | Some e -> check false e
      | None ->
          let want =
            match Hashtbl.find_opt index (o.req.spec, o.req.options) with
            | Some d -> Some d
            | None -> expected o.req
          in
          check (o.digest <> None && o.digest = want)
            ("response C differs for " ^ Spec.to_string o.req.spec))
    !outcomes;
  let frac hits misses =
    match (hits, misses) with
    | Some h, Some m when h + m > 0 -> float_of_int h /. float_of_int (h + m)
    | _ -> 0.0
  in
  let op = get "op" and cold = get "serve.cold" in
  let cache_hit_frac = frac (int_member "hits" cache) (int_member "misses" cache) in
  let store_hit_frac = frac (int_member "hits" st) (int_member "misses" st) in
  if not trace then begin
    check_tail "op" op;
    let rate = get "rate" in
    Printf.eprintf "serve-mixed: %d requests, %.3f s calibrated (%.3f s raw)\n" ops cal raw;
    report_q "ops_per_s (median repetition)" rate 0.5;
    report_q "op p50 (s)" op 0.5;
    report_q "op p95 (s)" op tail_q;
    report_q "never-seen p50 (s)" cold 0.5;
    Printf.eprintf "  plan cache hit frac %.3f, store hit frac %.3f\n" cache_hit_frac store_hit_frac;
    [
      metric "setup_s" setup_s;
      metric "peak_rss_mb" rss;
      metric "ops_per_s" (median (cals rate));
      metric "op_ms_p50" (1e3 *. median (cals op));
      metric "op_ms_p95" (1e3 *. quantile (cals op) tail_q);
    ]
  end
  else begin
    let serve_p50 = median (cals op) and cold_p50 = median (cals cold) in
    (* client 0's requests, replayed in this process untraced, then traced *)
    let rec take n = function x :: xs when n > 0 -> x :: take (n - 1) xs | _ -> [] in
    let requests = take replay_len (List.rev clients.(0).sent) in
    let untraced_s = replay ws requests "replay-untraced" in
    Hashtbl.reset table;
    start_tracing ();
    let traced_s = replay ws requests "replay-traced" in
    layers ws;
    stop_tracing "serve-mixed";
    let p50 name = median (cals (get name)) in
    let handle = p50 "service.handle" in
    let passes = busy "passes" traced_s and cemit = busy "serve.cemit" traced_s in
    [
      metric "plan_cache.hit_us_p50" (1e6 *. p50 "plan_cache.hit");
      metric "plan_cache.hit_frac" cache_hit_frac;
      metric "store.get_us_p50" (1e6 *. p50 "store.get");
      metric "store.put_us_p50" (1e6 *. p50 "store.put");
      metric "store.decode_us_p50" (1e6 *. p50 "store.decode");
      metric "store.warm_start_s" (median (Float.Array.of_list !warm_starts));
      metric "store.hit_frac" store_hit_frac;
      metric "store.puts" (float_of_int (Option.value (int_member "puts" st) ~default:0));
      metric "wire.encode_us_p50" (1e6 *. p50 "wire.encode");
      metric "wire.decode_us_p50" (1e6 *. p50 "wire.decode");
      metric "wire.frame_kbytes_p50" (median (raws (get "wire.frame_kbytes")));
      metric "cemit.us_p50" (1e6 *. p50 "cemit");
      metric "cemit.kbytes_p50" (median (raws (get "cemit.kbytes")));
      metric "service.handle_ms_p50" (1e3 *. handle);
      metric "server.transport_ms_p50" (1e3 *. (serve_p50 -. handle));
      metric "server.errored" (float_of_int errored);
      metric "server.shed" (float_of_int shed);
      metric "serve.cold_ms_p50" (1e3 *. cold_p50);
      metric "passes.busy_frac" passes;
      metric "cemit.busy_frac" cemit;
      (* the rest of the request path: plan cache, store, service and
         the wire codec *)
      metric "host.busy_frac" (1.0 -. passes -. cemit);
      metric "trace.overhead_frac" ((traced_s /. untraced_s) -. 1.0);
    ]
  end

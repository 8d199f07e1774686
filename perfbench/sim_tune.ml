(* sim-tune: the simulator under every tune, verify and profile run.
   Set-up compiles every plan the workload simulates (the multi-cluster
   plans into a cache the measurement then reads), so the timed phase is
   the simulator: Runner.measure on the calibrated machine (exact and
   extrapolated shapes), Runner.verify on the tiny presets, one
   multi-cluster measurement and one cold tuning search at a fixed budget
   with a fresh database, all on one host domain. What the timed phase
   still compiles (the tuning search's candidates, the one-block plan of
   each extrapolated measurement) shows as passes.busy_frac. *)

open Common
open Sw_core

type kind = Verify | Exact | Extrapolated

type plan = { label : string; kind : kind; compiled : Compile.t }

(* Padded sizes are fixed multiples of each machine's padding granule;
   the seed draws the requested sizes inside the padding and the
   transposes, alpha, beta and fusion around them, so every seed
   simulates problems of the same cost. *)
let granule config =
  let p = Spec.pad_for (Spec.make ~m:1 ~n:1 ~k:1 ()) config in
  (p.Spec.m, p.Spec.n, p.Spec.k)

let seeded_spec rng config ?(fusion = Spec.No_fusion) (xm, xn, xk) =
  let gm, gn, gk = granule config in
  let ext g x = within_padding rng ~granule:g (g * x) in
  Spec.make ~m:(ext gm xm) ~n:(ext gn xn) ~k:(ext gk xk)
    ~ta:(Random.State.bool rng) ~tb:(Random.State.bool rng)
    ~alpha:(pick rng [ 1.0; 0.5; -2.0 ])
    ~beta:(pick rng [ 1.0; 0.0; 0.5 ])
    ~fusion ()

(* One round: eight functional verifications, three exact and two
   extrapolated timing runs. Fixed counts per class keep the median in
   the verifications and the p95 in the extrapolated runs. *)
let verify_set =
  [
    ("tiny2", (1, 1, 1), Spec.No_fusion);
    ("tiny2", (2, 2, 2), Spec.No_fusion);
    ("tiny2-deep", (2, 2, 2), Spec.Epilogue "relu");
    ("tiny4", (1, 1, 1), Spec.No_fusion);
    ("tiny4", (2, 1, 1), Spec.Prologue "quant");
    ("tiny4", (1, 2, 2), Spec.No_fusion);
    ("tiny-8x4", (1, 1, 1), Spec.No_fusion);
    ("tiny-8x8", (1, 1, 1), Spec.Epilogue "sigmoid");
  ]

let exact_set = [ (1, 1, 2); (2, 1, 2); (1, 2, 2) ]
let extrapolated_set = [ (12, 12, 16); (32, 8, 16) ]
let heavy_exact = (4, 4, 8) (* 2048^3: the simulator's reference run *)

let multi_spec = Spec.make ~m:16384 ~n:16384 ~k:8192 ()
let multi_clusters = 6
let tune_spec = Spec.make ~m:8192 ~n:4096 ~k:4096 ()
let tune_budget = 6

type setup = {
  round : plan list;
  heavy : plan;
  multi_plan : Sw_multi.Plan.t;
  multi_session : Session.t;
}

let compile session spec =
  match Session.run session spec with
  | Ok c -> c
  | Error e -> failwith ("sim-tune set-up: " ^ Sw_arch.Error.to_string e)

let setup seed () =
  let rng = Random.State.make [| seed |] in
  let config = Sw_arch.Config.sw26010pro in
  let calibrated = Session.create ~no_cache:true ~arch:config () in
  let plan kind label spec = { label; kind; compiled = compile calibrated spec } in
  let verifies =
    List.map
      (fun (preset, size, fusion) ->
        let arch = Option.get (Sw_arch.Arch_desc.config_of_name preset) in
        let spec = seeded_spec rng arch ~fusion size in
        let session = Session.create ~no_cache:true ~arch () in
        { label = preset ^ " " ^ Spec.to_string spec; kind = Verify; compiled = compile session spec })
      verify_set
  in
  let timing kind size =
    let spec = seeded_spec rng config size in
    plan kind (Spec.to_string spec) spec
  in
  let round =
    verifies
    @ List.map (timing Exact) exact_set
    @ List.map (timing Extrapolated) extrapolated_set
  in
  let multi_plan =
    match Sw_multi.Plan.make multi_spec ~clusters:multi_clusters with
    | Ok p -> p
    | Error e -> failwith ("sim-tune set-up: multi plan: " ^ e)
  in
  (* Multi_sim.measure compiles every job and the original through its
     session: a cached session, warmed here, leaves it only simulating *)
  let multi_session = Session.create ~arch:config () in
  List.iter
    (fun (j : Sw_multi.Plan.job) -> ignore (compile multi_session j.Sw_multi.Plan.spec))
    multi_plan.Sw_multi.Plan.jobs;
  ignore (compile multi_session multi_plan.Sw_multi.Plan.original);
  { round; heavy = timing Exact heavy_exact; multi_plan; multi_session }

(* Simulated seconds of each timing plan's first run; every later run
   of the same plan, traced or not, must match it bit for bit. *)
let first_seconds : (string, float) Hashtbl.t = Hashtbl.create 16

let gflops = ref []

let check_seconds label (p : Runner.perf) =
  match Hashtbl.find_opt first_seconds label with
  | None ->
      Hashtbl.replace first_seconds label p.Runner.seconds;
      gflops := p.Runner.gflops :: !gflops;
      check (p.Runner.seconds > 0.0) (label ^ ": no simulated time")
  | Some s ->
      check
        (Int64.bits_of_float s = Int64.bits_of_float p.Runner.seconds)
        (Printf.sprintf "%s: simulated %.17g s, earlier run %.17g s" label p.Runner.seconds s)

(* One simulator call, timed as one operation. *)
let simulate plan =
  let ev0 = events_total () and minor0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  let t0 = now () in
  (match plan.kind with
  | Verify -> (
      match timed ~passes:true "sim.verify" (fun () -> Runner.verify plan.compiled) with
      | Ok () -> check true ""
      | Error e -> check false (plan.label ^ ": " ^ Runner.error_to_string e))
  | Exact | Extrapolated -> (
      let name = if plan.kind = Exact then "sim.exact" else "sim.extrapolated" in
      match timed ~passes:true name (fun () -> Runner.measure plan.compiled) with
      | p ->
          check (p.Runner.exact = (plan.kind = Exact)) (plan.label ^ ": wrong simulation mode");
          check_seconds plan.label p
      | exception Runner.Runner_error e -> check false (plan.label ^ ": " ^ Runner.error_to_string e)));
  record "op" (now () -. t0);
  if traced () then begin
    let layer = if plan.kind = Verify then "functional" else "timing" in
    record_count ("sim." ^ layer ^ ".events") (float_of_int (events_total () - ev0));
    record_count ("sim." ^ layer ^ ".minor_words") (Gc.minor_words () -. minor0);
    if plan.label = "heavy" then
      record_count "sim.timing_major_mwords"
        (((Gc.quick_stat ()).Gc.major_words -. major0) /. 1e6)
  end

let multi_measure st =
  let t0 = now () in
  (match
     timed ~passes:true "multi.measure" (fun () ->
         Sw_multi.Multi_sim.measure ~jobs:1 st.multi_session st.multi_plan)
   with
  | s ->
      check_seconds "multi"
        { Runner.seconds = s.Sw_multi.Multi_sim.seconds; gflops = s.Sw_multi.Multi_sim.gflops; exact = false }
  | exception Runner.Runner_error e -> check false ("multi: " ^ Runner.error_to_string e));
  record "op" (now () -. t0)

let tune_runs = ref 0
let tune_outcome = ref None

let tune () =
  incr tune_runs;
  let dir = Filename.concat out_dir (Printf.sprintf "tune-db-%d" !tune_runs) in
  rm_rf dir;
  mkdir_p out_dir;
  let db = Sw_tune.Tune_db.open_ ~dir () in
  let t0 = now () in
  let r =
    timed ~passes:true "tune.run" (fun () ->
        Sw_tune.Search.run ~budget:tune_budget ~jobs:1 ~db ~config:Sw_arch.Config.sw26010pro
          tune_spec)
  in
  record "op" (now () -. t0);
  rm_rf dir;
  match r with
  | Error e -> check false ("tune: " ^ e)
  | Ok o ->
      tune_outcome := Some o;
      if !tune_runs = 1 then gflops := o.Sw_tune.Search.gflops :: !gflops;
      check
        (o.Sw_tune.Search.gflops >= o.Sw_tune.Search.default_gflops)
        (Printf.sprintf "tune: winner %.3f GFLOPS below the default %.3f"
           o.Sw_tune.Search.gflops o.Sw_tune.Search.default_gflops)

(* The heavy calls run first, a repetition each, then rounds, a
   repetition each: [rounds] of them (a replay), or until [seconds] have
   passed and the p95 has its samples. Returns the call count,
   calibrated and raw seconds, and the number of rounds. *)
let phase st ~seconds ~rounds =
  let t_end = now () +. seconds in
  let single f =
    timed_phase ~reps:1 ~seconds:0.0 ~min_ops:0 (fun () ->
        let (), dt = clock f in
        (1, dt))
  in
  let heads =
    [
      single (fun () -> simulate { st.heavy with label = "heavy" });
      single (fun () -> multi_measure st);
      single tune;
    ]
  in
  let n = ref 0 in
  let ops, cal, raw =
    timed_phase ?reps:rounds ~seconds:(t_end -. now ()) ~min_ops:min_tail_samples (fun () ->
        incr n;
        let (), dt = clock (fun () -> List.iter simulate st.round) in
        (List.length st.round, dt))
  in
  List.fold_left
    (fun (o, c, r, n) (o', c', r') -> (o + o', c +. c', r +. r', n))
    (ops, cal, raw, !n) heads

(* Blas reference DGEMMs of the verification set, on fresh operands. *)
let blas_reference st =
  let (), _ =
    repetition (fun () ->
        List.iter
          (fun p ->
            if p.kind = Verify then begin
              let s = p.compiled.Compile.original in
              let a_rows, a_cols = if s.Spec.ta then (s.Spec.k, s.Spec.m) else (s.Spec.m, s.Spec.k) in
              let b_rows, b_cols = if s.Spec.tb then (s.Spec.n, s.Spec.k) else (s.Spec.k, s.Spec.n) in
              let a = Sw_blas.Matrix.random ~rows:a_rows ~cols:a_cols ~seed:1 in
              let b = Sw_blas.Matrix.random ~rows:b_rows ~cols:b_cols ~seed:2 in
              let c = Sw_blas.Matrix.random ~rows:s.Spec.m ~cols:s.Spec.n ~seed:3 in
              timed "blas.reference" (fun () ->
                  Sw_blas.Dgemm.gemm_t ~ta:s.Spec.ta ~tb:s.Spec.tb ~alpha:s.Spec.alpha
                    ~beta:s.Spec.beta ~a ~b ~c)
            end)
          st.round)
  in
  ()

let run ~seed ~seconds ~trace =
  let st, setup_s = timed_setup (fun () -> calibrated (setup seed)) in
  if not trace then begin
    let ops, cal, raw, rounds = phase st ~seconds ~rounds:None in
    let rate = get "rate" in
    (* the same plans once more with the metrics registry and span sink
       installed: simulated time must not move by a bit *)
    start_tracing ();
    List.iter
      (fun p -> if p.kind <> Verify then simulate p)
      (List.filteri (fun i _ -> i >= List.length verify_set + 2) st.round);
    sink := None;
    Sw_obs.Span.uninstall ();
    Sw_obs.Metrics.uninstall ();
    let op = get "op" in
    check_tail "op" op;
    Printf.eprintf "sim-tune: %d simulator calls (%d rounds), %.3f s calibrated (%.3f s raw)\n"
      ops rounds cal raw;
    report_q "ops_per_s (median repetition)" rate 0.5;
    report_q "op p50 (s)" op 0.5;
    report_q "op p95 (s)" op tail_q;
    Printf.eprintf "  model GFLOPS geomean %.6f over %d runs\n" (geomean !gflops)
      (List.length !gflops);
    [
      metric "setup_s" setup_s;
      metric "ops_per_s" (median (cals rate));
      metric "op_ms_p50" (1e3 *. median (cals op));
      metric "op_ms_p95" (1e3 *. quantile (cals op) tail_q);
    ]
  end
  else begin
    let ops_u, cal_u, _, rounds = phase st ~seconds:(seconds /. 2.0) ~rounds:None in
    Hashtbl.reset table;
    start_tracing ();
    let ops_t, cal_t, _, _ = phase st ~seconds:0.0 ~rounds:(Some rounds) in
    (* after the phase, outside its time *)
    blas_reference st;
    stop_tracing "sim-tune";
    let total name = sum (cals (get name)) in
    let count name = sum (raws (get name)) in
    (* time inside the simulator entry points, less the passes of the
       compilations nested in them *)
    let sim_time =
      List.fold_left (fun a name -> a +. total name) 0.0
        [ "sim.verify"; "sim.exact"; "sim.extrapolated"; "multi.measure"; "tune.run" ]
      -. total "passes"
    in
    let timing_time = total "sim.exact" +. total "sim.extrapolated" in
    let tune =
      match !tune_outcome with
      | None -> []
      | Some o ->
          let open Sw_tune.Search in
          let entries = float_of_int (List.length o.entries) in
          let share p = float_of_int (List.length (List.filter p o.entries)) /. entries in
          [
            metric "tune.measurements" (float_of_int o.measurements);
            metric "tune.legal_frac"
              (share (fun e -> match e.verdict with Legality _ -> false | _ -> true));
            metric "tune.pruned_frac"
              (share (fun e ->
                   match e.verdict with Bound_pruned _ | Budget_pruned _ -> true | _ -> false));
            metric "tune.ms_per_measurement"
              (1e3 *. total "tune.run" /. float_of_int (max 1 o.measurements));
          ]
    in
    [
      metric "sim.timing_events_per_s" (count "sim.timing.events" /. timing_time);
      metric "sim.functional_events_per_s" (count "sim.functional.events" /. total "sim.verify");
      metric "sim.timing_minor_words_per_event"
        (count "sim.timing.minor_words" /. count "sim.timing.events");
      metric "sim.functional_minor_words_per_event"
        (count "sim.functional.minor_words" /. count "sim.functional.events");
      metric "sim.timing_major_mwords" (median (raws (get "sim.timing_major_mwords")));
      metric "sim.exact_ms_p50" (1e3 *. median (cals (get "sim.exact")));
      metric "sim.extrapolated_ms_p50" (1e3 *. median (cals (get "sim.extrapolated")));
      metric "sim.gflops_geomean" (geomean !gflops);
      metric "sim.busy_frac" (sim_time /. cal_t);
      metric "passes.busy_frac" (busy "passes" cal_t);
      metric "blas.reference_ms" (1e3 *. total "blas.reference");
      metric "tune.run_s" (median (cals (get "tune.run")));
      metric "multi.measure_ms" (1e3 *. median (cals (get "multi.measure")));
      metric "trace.overhead_frac"
        ((cal_t /. float_of_int ops_t) /. (cal_u /. float_of_int ops_u) -. 1.0);
    ]
    @ tune
  end

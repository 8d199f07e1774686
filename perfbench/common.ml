(* Shared machinery of the benchmark: host-speed calibration, exact
   quantiles, operation accounting, spans, resident-set readings and the
   result line. *)

let now = Unix.gettimeofday

(* The benchmark's own span sink: spans sit around calls into each
   layer's public functions, recorded only in a traced run. *)
let sink : Sw_obs.Span.sink option ref = ref None

let span name f =
  match !sink with None -> f () | Some s -> Sw_obs.Span.span s ~cat:"layer" name f

let traced () = Option.is_some !sink

(* ------------------------------------------------------------------ *)
(* Calibration                                                          *)
(* ------------------------------------------------------------------ *)

(* A fixed CPU and allocation loop (hashing, short-lived lists, float
   arithmetic, string building: the mix the generator itself runs). Its
   duration tracks how fast the host is right now, so a raw time scaled
   by [calib_ref_s / measured] is comparable across the minutes-long
   speed drifts of a shared machine. Never change this loop or
   [calib_ref_s]: calibrated figures from two commits are comparable
   only while both stay fixed. *)
let calib_loop () =
  let h = Hashtbl.create 512 in
  let acc = ref 0.0 in
  let buf = Buffer.create 4096 in
  for i = 0 to 3_999 do
    let l = List.init 6 (fun j -> (i + j, float_of_int ((i * j) land 1023))) in
    Hashtbl.replace h (i land 511) l;
    (match Hashtbl.find_opt h ((i * 7) land 511) with
    | Some l' ->
        acc := !acc +. List.fold_left (fun a (_, f) -> a +. sqrt (f +. 1.0)) 0.0 l'
    | None -> ());
    if i land 15 = 0 then begin
      Buffer.clear buf;
      List.iter (fun (k, _) -> Buffer.add_string buf (string_of_int k)) l;
      acc := !acc +. float_of_int (Hashtbl.hash (Buffer.contents buf) land 7)
    end
  done;
  !acc

(* About the loop's median duration on an idle 2-core x86-64 host. *)
let calib_ref_s = 0.0015

let calib_raw : float list ref = ref []
(* every calibration reading of the run, raw seconds *)

(* How many cores the workload keeps busy: serve-mixed splits its work
   between this process and the daemon, so it calibrates both cores. *)
let calib_cores = ref 1

let calibrate () =
  let median_of_5 () =
    let one () =
      let t0 = now () in
      ignore (Sys.opaque_identity (calib_loop ()));
      now () -. t0
    in
    List.nth (List.sort compare (List.init 5 (fun _ -> one ()))) 2
  in
  let others = List.init (!calib_cores - 1) (fun _ -> Domain.spawn median_of_5) in
  let mine = median_of_5 () in
  let all = mine :: List.map Domain.join others in
  let m = List.fold_left ( +. ) 0.0 all /. float_of_int !calib_cores in
  calib_raw := m :: !calib_raw;
  m

(* ------------------------------------------------------------------ *)
(* Samples and exact quantiles                                          *)
(* ------------------------------------------------------------------ *)

(* Raw and calibrated values of one measured quantity, unboxed in arrays
   of spare capacity: a run keeps tens of thousands of them, and the
   benchmark's own bookkeeping should not grow peak_rss_mb with the
   number of operations a run happens to get through. *)
type samples = { mutable raw_a : Float.Array.t; mutable cal_a : Float.Array.t; mutable n : int }

let samples () = { raw_a = Float.Array.create 64; cal_a = Float.Array.create 64; n = 0 }

let add s ~factor raw =
  if s.n = Float.Array.length s.raw_a then begin
    let grow a =
      let b = Float.Array.create (2 * s.n) in
      Float.Array.blit a 0 b 0 s.n;
      b
    in
    s.raw_a <- grow s.raw_a;
    s.cal_a <- grow s.cal_a
  end;
  Float.Array.set s.raw_a s.n raw;
  Float.Array.set s.cal_a s.n (raw *. factor);
  s.n <- s.n + 1

(* The [n] raw and calibrated values. *)
let raws s = Float.Array.sub s.raw_a 0 s.n
let cals s = Float.Array.sub s.cal_a 0 s.n

(* Linear interpolation between order statistics of the raw samples
   (no histogram buckets). *)
let quantile xs q =
  let a = Float.Array.copy xs in
  Float.Array.sort compare a;
  let n = Float.Array.length a in
  if n = 0 then 0.0
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (n - 1) (lo + 1) in
    Float.Array.get a lo +. ((h -. float_of_int lo) *. (Float.Array.get a hi -. Float.Array.get a lo))

let median xs = quantile xs 0.5
let sum xs = Float.Array.fold_left ( +. ) 0.0 xs

(* Every timed quantity of the run, by name. Samples taken inside a
   repetition wait in [pending] until the repetition's closing
   calibration fixes their factor. *)
let table : (string, samples) Hashtbl.t = Hashtbl.create 64
let pending : (string * float) list ref = ref []

let get name =
  match Hashtbl.find_opt table name with
  | Some s -> s
  | None ->
      let s = samples () in
      Hashtbl.replace table name s;
      s

let record name raw = pending := (name, raw) :: !pending

(* A count or size, which needs no calibration. *)
let record_count name v = add (get name) ~factor:1.0 v

(* Run [f] as one timed repetition between two calibrations. Returns
   its result and the factor that turns raw seconds measured during it
   into calibrated seconds; samples [record]ed during [f] are stored
   with that factor. *)
let repetition f =
  let before = calibrate () in
  pending := [];
  let r = f () in
  let after = calibrate () in
  let factor = calib_ref_s /. ((before +. after) /. 2.0) in
  List.iter (fun (name, raw) -> add (get name) ~factor raw) (List.rev !pending);
  pending := [];
  (r, factor)

(* Seconds the installed registry's [pass.seconds] histograms hold: every
   pass of every Compile.run since the registry was installed, timed by
   the same clock reading that fills the [pass_stats] Compile.run
   returns. This sees the passes of compilations nested inside other
   calls (a tuning search, an extrapolated measurement, Service.handle),
   whose [pass_stats] the caller never gets. 0 with no registry. *)
let pass_seconds () =
  match Sw_obs.Metrics.current () with
  | None -> 0.0
  | Some r ->
      List.fold_left
        (fun acc ((name, _), v) ->
          match v with
          | Sw_obs.Metrics.Histogram h when name = "pass.seconds" -> acc +. h.sum
          | _ -> acc)
        0.0
        (Sw_obs.Metrics.snapshot r)

(* Time [f] in a traced run, recording its raw seconds under [name] and
   a span around it, and with [~passes] the pass seconds spent inside it
   under "passes"; just [f ()] otherwise. *)
let timed ?(passes = false) name f =
  if not (traced ()) then f ()
  else begin
    let p0 = if passes then pass_seconds () else 0.0 in
    let t0 = now () in
    let r = span name f in
    record name (now () -. t0);
    if passes then record "passes" (pass_seconds () -. p0);
    r
  end

(* The share of [phase_s] calibrated seconds the samples of [name] took. *)
let busy name phase_s = sum (cals (get name)) /. phase_s

(* The throughput of one repetition: [ops] operations in [dt] raw
   seconds, calibrated by [factor]. ops_per_s is the median of these, so
   a repetition slowed by a passing neighbour on the host moves it
   little. *)
let record_rate ~ops ~factor dt =
  if ops > 0 && dt > 0.0 then add (get "rate") ~factor:(1.0 /. factor) (float_of_int ops /. dt)

(* [f ()] and the raw seconds it took. *)
let clock f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Repetitions of [batch] (which returns the number of operations it
   ran and the raw seconds they took) until [seconds] of wall time have
   passed and at least [min_ops] operations ran, or exactly [reps]
   repetitions when given. Returns the operation count and the
   calibrated and raw seconds the operations took. *)
let timed_phase ?reps ~seconds ~min_ops batch =
  let t_end = now () +. seconds in
  let rec go i ops cal raw =
    let finished =
      match reps with
      | Some r -> i >= r
      | None -> now () >= t_end && ops >= min_ops
    in
    if finished then (ops, cal, raw)
    else
      let (n, dt), factor = repetition batch in
      record_rate ~ops:n ~factor dt;
      go (i + 1) (ops + n) (cal +. (dt *. factor)) (raw +. dt)
  in
  go 0 0 0.0 0.0

(* The highest quantile reported is the one with at least ten samples
   beyond it; a run that could not collect them is an error, never a
   silently thinner tail. *)
let tail_q = 0.95

let min_tail_samples = int_of_float (Float.ceil (10.0 /. (1.0 -. tail_q)))

let check_tail name s =
  if s.n < min_tail_samples then
    failwith
      (Printf.sprintf "%s: %d samples, the p95 needs at least %d" name s.n
         min_tail_samples)

let geomean = function
  | [] -> 0.0
  | xs -> exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

(* ------------------------------------------------------------------ *)
(* Operation accounting                                                 *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0
let failures : string list ref = ref []

(* One correctness-checked operation: [ok = false] is counted and the
   reason kept for the report. *)
let check ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    if List.length !failures < 20 then failures := what :: !failures
  end

(* ------------------------------------------------------------------ *)
(* Files and tracing                                                    *)
(* ------------------------------------------------------------------ *)

(* Everything a run writes (traces, stores, sockets) stays under here. *)
let out_dir = Filename.concat "perfbench" "out"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let write_trace workload =
  match !sink with
  | None -> ()
  | Some s ->
      mkdir_p out_dir;
      let path = Filename.concat out_dir (workload ^ ".trace.json") in
      Sw_obs.Json.write_file ~path (Sw_obs.Span.to_chrome s);
      Printf.eprintf "trace: %d spans -> %s\n" (Sw_obs.Span.length s) path

(* sim.events_total of the installed registry (0 when none is). *)
let events_total () =
  match Sw_obs.Metrics.current () with
  | None -> 0
  | Some r -> (
      match Sw_obs.Metrics.find (Sw_obs.Metrics.snapshot r) "sim.events_total" with
      | Some (Sw_obs.Metrics.Counter n) -> n
      | _ -> 0)

(* ------------------------------------------------------------------ *)
(* Memory                                                               *)
(* ------------------------------------------------------------------ *)

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | exception End_of_file -> failwith "VmHWM missing from /proc status"
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Report                                                               *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float }

let metric name value = { name; value }

(* Human-readable lines on stderr: calibrated value, raw value and the
   sample count beside every quantile. *)
let report_q label s q =
  Printf.eprintf "  %-34s calibrated %12.6g  raw %12.6g  (n=%d)\n" label
    (quantile (cals s) q) (quantile (raws s) q) s.n

(* [metrics] are (name, unit, value) triples. *)
let result_line metrics =
  let open Sw_obs.Json in
  to_string
    (Obj
       [
         ("correct", Bool (!failed = 0));
         ("attempted", Int !attempted);
         ("failed", Int !failed);
         ( "metrics",
           Obj
             (List.map
                (fun (name, unit_, value) ->
                  (name, Obj [ ("value", Float value); ("unit", String unit_) ]))
                metrics) );
       ])

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)
(* ------------------------------------------------------------------ *)

let setup_reps = 5

(* [f ()] as one repetition, and the calibrated seconds it took. *)
let calibrated f =
  let (r, dt), factor = repetition (fun () -> clock f) in
  (r, dt *. factor)

(* Set the workload up [setup_reps] times; [f] returns the set-up and
   the calibrated seconds it spent setting up (split into [calibrated]
   chunks, so no calibration is far in time from the work it scales).
   [teardown] releases every set-up but the last, which the timed phase
   uses. Returns that set-up and the median seconds. *)
let timed_setup ?(teardown = ignore) f =
  let rec go i acc last =
    if i = setup_reps then (Option.get last, median (Float.Array.of_list acc))
    else begin
      Option.iter teardown last;
      let st, dt = f () in
      go (i + 1) (dt :: acc) (Some st)
    end
  in
  go 0 [] None

(* Seeded choice helpers. *)
let pick rng l = List.nth l (Random.State.int rng (List.length l))

(* A uniformly drawn extent at most [hi] that pads to the same size as
   [hi] under [granule]: the simulated (padded) problem, and so its cost,
   stays fixed while the requested sizes vary with the seed. *)
let within_padding rng ~granule hi = hi - Random.State.int rng (((hi - 1) mod granule) + 1)

(* The paper's evaluation cases (sections 8.1-8.4), with the shape sets
   of bench/main.ml: the Fig. 13 squares, the Fig. 14 non-square shapes,
   the Fig. 15 shapes at batch 2, 4, 8 and 16, and the Fig. 16 shapes
   with the quantisation prologue and with the tanh epilogue. The
   workloads draw their shapes, batches and fusions from these, each
   case equally often. *)
type case = { batch : int option; fusion : Sw_core.Spec.fusion; m : int; n : int; k : int }

let paper_cases =
  let plain ?batch ?(fusion = Sw_core.Spec.No_fusion) (m, n, k) = { batch; fusion; m; n; k } in
  let fig13 = [ 512; 1024; 1536; 2048; 2560; 3072; 4096; 5120; 6144; 7680; 10240; 15360 ] in
  let fig14 =
    List.concat_map
      (fun (m, n) -> List.map (fun k -> (m, n, k)) [ 4096; 8192; 15360; 16384 ])
      [
        (2048, 4096); (4096, 4096); (4096, 8192); (8192, 8192); (4096, 16384);
        (8192, 16384); (2048, 8192); (8192, 4096); (16384, 4096);
      ]
  in
  let fig15 =
    [
      (512, 512, 3072); (2048, 2048, 5120); (4096, 4096, 6144);
      (4096, 4096, 12288); (4096, 4096, 16384); (8192, 8192, 10240);
    ]
  in
  let fig16 =
    [
      (2048, 2048, 2048); (3072, 3072, 3072); (4096, 4096, 4096);
      (6144, 6144, 6144); (8192, 8192, 8192); (10752, 10752, 10752);
      (8192, 16384, 8192); (4096, 8192, 8192);
    ]
  in
  Array.of_list
    (List.map (fun n -> plain (n, n, n)) fig13
    @ List.map plain fig14
    @ List.concat_map (fun batch -> List.map (plain ~batch) fig15) [ 2; 4; 8; 16 ]
    @ List.concat_map
        (fun fusion -> List.map (plain ~fusion) fig16)
        [ Sw_core.Spec.Prologue "quant"; Sw_core.Spec.Epilogue "tanh" ])

(* A spec of [case] for [config]: the seed draws the requested sizes
   inside the padding (so each pads to what the paper's extent pads to)
   and the transposes. *)
let spec_of_case rng config c =
  let p = Sw_core.Spec.pad_for (Sw_core.Spec.make ~m:1 ~n:1 ~k:1 ()) config in
  let ext granule x = within_padding rng ~granule x in
  Sw_core.Spec.make ?batch:c.batch ~fusion:c.fusion
    ~m:(ext p.Sw_core.Spec.m c.m) ~n:(ext p.Sw_core.Spec.n c.n) ~k:(ext p.Sw_core.Spec.k c.k)
    ~ta:(Random.State.bool rng) ~tb:(Random.State.bool rng) ()

(* A traced run installs the span sink and a metrics registry (the
   source of sim.events_total and pass.seconds) and writes a Chrome trace
   at the end. *)
let start_tracing () =
  let s = Sw_obs.Span.create () in
  sink := Some s;
  (* the library's own compile and pass spans land in the same trace *)
  Sw_obs.Span.install s;
  Sw_obs.Metrics.install (Sw_obs.Metrics.create ())

let stop_tracing workload =
  write_trace workload;
  sink := None;
  Sw_obs.Span.uninstall ();
  Sw_obs.Metrics.uninstall ()

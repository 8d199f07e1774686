(* The swgemm benchmark.

   swbench --workload NAME --seed N --seconds S --trace 0|1 --daemon EXE

   Runs one workload (compile-cold, sim-tune or serve-mixed) built from
   the seed, checks every result, and prints as its last stdout line one
   JSON object {correct, attempted, failed, metrics}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1, both as
   BENCHMARK.json (read from the working directory) lists them. Host
   times are calibrated (see Common.calibrate); the raw times, sample
   counts and failures go to stderr. Exits non-zero, printing no result,
   when the workload cannot run. *)

open Common

(* The (name, unit) pairs of a metric list of BENCHMARK.json, the one
   place the metrics are listed. *)
let listed key =
  let fail why = failwith ("BENCHMARK.json: " ^ why) in
  let field name m =
    match Option.bind (Sw_obs.Json.member name m) Sw_obs.Json.to_string_opt with
    | Some v -> v
    | None -> fail (key ^ " entry without a " ^ name)
  in
  match Sw_obs.Json.parse_file "BENCHMARK.json" with
  | Error e -> fail e
  | Ok j -> (
      match Option.bind (Sw_obs.Json.member key j) Sw_obs.Json.to_list_opt with
      | None -> fail ("no " ^ key ^ " list")
      | Some l -> List.map (fun m -> (field "name" m, field "unit" m)) l)

let workloads = [ "compile-cold"; "sim-tune"; "serve-mixed" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let daemon = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--daemon", Arg.Set_string daemon, "EXE the swgemmd binary (serve-mixed)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "swbench --workload NAME --seed N --seconds S --trace 0|1 --daemon EXE";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("swbench: unknown workload " ^ !workload);
    exit 2
  end;
  let trace = !trace = 1 in
  let wanted =
    try listed (if trace then "per_layer" else "end_to_end")
    with Failure e | Sys_error e ->
      prerr_endline ("swbench: " ^ e);
      exit 2
  in
  (* never outlive the caller's deadline, and never leave a daemon behind *)
  let abort _ =
    Serve_mixed.kill_all ();
    prerr_endline "swbench: interrupted";
    exit 1
  in
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle abort)) [ Sys.sigalrm; Sys.sigterm; Sys.sigint ];
  ignore (Unix.alarm 170);
  let run () =
    match !workload with
    | "compile-cold" -> Compile_cold.run ~seed:!seed ~seconds:!seconds ~trace
    | "sim-tune" -> Sim_tune.run ~seed:!seed ~seconds:!seconds ~trace
    | _ -> Serve_mixed.run ~daemon:!daemon ~seed:!seed ~seconds:!seconds ~trace
  in
  match run () with
  | exception e ->
      Serve_mixed.kill_all ();
      Printf.eprintf "swbench: %s failed: %s\n" !workload (Printexc.to_string e);
      exit 1
  | measured ->
      let find name = List.find_opt (fun m -> m.name = name) measured in
      let ok_frac = float_of_int (!attempted - !failed) /. float_of_int (max 1 !attempted) in
      let value name =
        match find name with
        | Some m -> Some m.value
        | None when name = "ok_frac" -> Some ok_frac
        | None when name = "peak_rss_mb" -> Some (peak_rss_mb "self")
        | None when name = "bench.calib_ms" -> Some (1e3 *. median (Float.Array.of_list !calib_raw))
        | None -> None
      in
      let metrics =
        List.map
          (fun (name, unit_) ->
            match value name with
            | Some v -> (name, unit_, v)
            (* a layer this workload does not call *)
            | None when trace -> (name, unit_, 0.0)
            | None ->
                Printf.eprintf "swbench: end-to-end metric %s not measured\n" name;
                exit 1)
          wanted
      in
      List.iter
        (fun m ->
          if not (List.exists (fun (name, _, _) -> name = m.name) metrics) then
            Printf.eprintf "swbench: %s is measured but not listed in BENCHMARK.json\n" m.name)
        measured;
      Printf.eprintf "%s: %d/%d operations correct\n" !workload (!attempted - !failed) !attempted;
      List.iter (Printf.eprintf "  failure: %s\n") (List.rev !failures);
      if !attempted = 0 then exit 1;
      print_endline (result_line metrics)

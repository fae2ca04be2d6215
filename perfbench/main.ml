(* Command-line entry of the end-to-end benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs a batch of complete simulations of one workload over the seed
   block that [--seed] selects, repeated so that the batch lasts about
   [--seconds] on the reference host, and prints every metric by name
   with its unit.  The last line of standard output is one JSON object
   with the keys [correct], [attempted], [failed] and [metrics]: the
   end-to-end metrics with [--trace 0], the per-layer ones with
   [--trace 1].  A traced run needs OCAML_RUNTIME_EVENTS_DIR set (see
   perfbench/run.py), so that the runtime's event ring stays out of the
   working directory. *)

module B = Carlos_perfbench.Bench

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_per_host_s" then "1/s"
  else if ends "_s" then "s"
  else if ends "_mb" then "MB"
  else if ends "_mwords" then "Mwords"
  else if ends "ratio" || ends "share" || ends "utilization" then "ratio"
  else if
    String.ends_with ~suffix:"bytes" name
    || String.ends_with ~suffix:"bytes_fetched" name
    || String.starts_with ~prefix:"wire." name
  then "bytes"
  else "count"

let exact_of s name = List.assoc name s.B.exact

let mean_exact samples name =
  mean
    (List.filter_map
       (fun s -> if s.B.exact = [] then None else Some (exact_of s name))
       samples)

(* Pairs up two simulations of the same seed and names the [names]
   figures on which they differ. *)
let differences names pairs =
  List.concat_map
    (fun (a, b) ->
      if a.B.exact = [] || b.B.exact = [] then []
      else
        List.filter_map
          (fun name ->
            if exact_of a name = exact_of b name then None
            else Some (Option.value ~default:0 a.B.seed, name))
          names)
    pairs

let print_metric (name, value) =
  Printf.printf "  %-28s %18.6f %s\n" name value (unit_of name)

(* A figure no simulation produced (all of them raised) is [null]. *)
let json_number v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number v) (unit_of name))
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let report_failures all =
  List.iter
    (fun s ->
      match s.B.error with
      | Some e ->
        Printf.printf "  FAILED seed %d: %s\n"
          (Option.value ~default:0 s.B.seed)
          e
      | None -> ())
    all

(* Host seconds scaled to the reference host's speed: each simulation's
   time is divided by the calibration that brackets it ({!B.calibrate})
   and multiplied by what that calibration takes on the reference host
   at rest (see perfbench/NOTES.md). *)
let reference_calibration_s = 0.0143

let scaled f samples =
  median
    (List.map
       (fun s -> f s /. s.B.calibration_s *. reference_calibration_s)
       samples)

let end_to_end samples =
  let passed = List.length (List.filter (fun s -> s.B.passed) samples) in
  [
    ("host_s", scaled B.host_s samples);
    ("setup_s", scaled (fun s -> s.B.setup_s) samples);
    ("peak_rss_mb", peak_rss_mb ());
  ]
  @ List.map (fun n -> (n, mean_exact samples n)) B.exact_names
  @ [
      ( "check_pass_ratio",
        float_of_int passed /. float_of_int (List.length samples) );
    ]

(* The unscaled host figures behind [host_s] and [setup_s]. *)
let host_speed samples =
  [
    ("host.wall_s", median (List.map B.host_s samples));
    ("host.setup_wall_s", median (List.map (fun s -> s.B.setup_s) samples));
    ( "host.calibration_s",
      median (List.map (fun s -> s.B.calibration_s) samples) );
  ]

(* The phases must account for the traced iterations' own wall time
   within this share. *)
let phase_tolerance = 0.02

let per_layer ~untraced ~traced =
  let with_layers = List.filter (fun s -> s.B.layers <> []) traced in
  let names =
    match with_layers with s :: _ -> List.map fst s.B.layers | [] -> []
  in
  let layer name =
    mean (List.map (fun s -> List.assoc name s.B.layers) with_layers)
  in
  let phase f = mean (List.map f traced) in
  let events = layer "sim.events" in
  let phases =
    [
      ("phase.setup_s", phase (fun s -> s.B.setup_s));
      ("phase.simulate_s", phase (fun s -> s.B.simulate_s));
      ("phase.verify_s", phase (fun s -> s.B.verify_s));
      ("phase.report_s", phase (fun s -> s.B.report_s));
    ]
  in
  let metrics =
    List.map (fun n -> (n, layer n)) names
    @ [
        ( "sim.events_per_host_s",
          events /. mean (List.map (fun s -> s.B.simulate_s) untraced) );
      ]
    @ phases
    @ host_speed untraced
    @ [
        ( "obs.trace_overhead_s",
          mean (List.map B.host_s traced) -. mean (List.map B.host_s untraced)
        );
      ]
  in
  let phase_sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 phases in
  let outer = phase (fun s -> s.B.outer_s) in
  let gap = Float.abs (outer -. phase_sum) /. outer in
  Printf.printf
    "  phases cover %.2f%% of the traced iterations' wall time (tolerance \
     %.0f%%)\n"
    (100.0 *. phase_sum /. outer) (100.0 *. phase_tolerance);
  (metrics, gap <= phase_tolerance)

let () =
  let workload = ref "" and seed = ref (-1) in
  let seconds = ref 0.0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N selects the block of simulation seeds");
      ("--seconds", Arg.Set_float seconds, "S host seconds to size the batch");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ]
    (fun a -> fail "unexpected argument %S" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match B.find_workload !workload with
    | Some w -> w
    | None ->
      fail "unknown workload %S (one of: %s)" !workload
        (String.concat ", " (List.map (fun w -> w.B.name) B.workloads))
  in
  if !seed < 0 then fail "--seed must be a non-negative integer";
  if !seconds <= 0.0 then fail "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let traced = !trace = 1 in
  if traced && Sys.getenv_opt "OCAML_RUNTIME_EVENTS_DIR" = None then
    fail "--trace 1 needs OCAML_RUNTIME_EVENTS_DIR (use perfbench/run.py)";
  let seeds = B.seeds_of w ~seed:!seed ~seconds:!seconds in
  (* A traced run prices the tracing against an untraced pass over the
     same seeds; together they take about as long as an untraced run. *)
  let seeds =
    if traced then
      List.filteri (fun i _ -> i < max 1 (List.length seeds / 3)) seeds
    else seeds
  in
  Printf.printf "workload %s: %d simulation(s), seeds %d..%d%s\n%!" w.B.name
    (List.length seeds) (List.hd seeds)
    (List.nth seeds (List.length seeds - 1))
    (if traced then ", untraced then traced" else "");
  B.warm_up w (List.hd seeds);
  let untraced = B.run_batch ~traced:false w seeds in
  (* Replaying the batch's first seed must reproduce it exactly. *)
  let replay = B.run_one ~traced:false w (Some (List.hd seeds)) in
  let drift =
    differences
      (List.filter (( <> ) "promoted_mwords") B.exact_names)
      [ (replay, List.hd untraced) ]
  in
  let all, metrics, drift, phases_ok =
    if not traced then (replay :: untraced, end_to_end untraced, drift, true)
    else begin
      let g = B.Gc_phases.start () in
      Carlos_obs.Profile.set_enabled true;
      let tr = B.run_batch ~gc_phases:g ~traced:true w seeds in
      Carlos_obs.Profile.set_enabled false;
      if B.Gc_phases.lost g > 0 then
        Printf.printf "  runtime events lost: %d\n" (B.Gc_phases.lost g);
      B.Gc_phases.stop g;
      let metrics, ok = per_layer ~untraced ~traced:tr in
      (* Tracing must not change what is simulated. *)
      let virtual_names =
        [ "sim_makespan_s"; "sim_quiesce_s"; "messages"; "wire_bytes" ]
      in
      ( replay :: (untraced @ tr),
        metrics,
        drift @ differences virtual_names (List.combine untraced tr),
        ok )
    end
  in
  let attempted = List.length all in
  let failed = List.length (List.filter (fun s -> not s.B.passed) all) in
  report_failures all;
  List.iter
    (fun (s, name) -> Printf.printf "  NONDETERMINISTIC seed %d: %s\n" s name)
    drift;
  if not phases_ok then
    print_endline "  phase spans do not account for the run";
  if not traced then
    Printf.printf
      "  host_s and setup_s: medians of %d simulations, scaled by host speed\n"
      (List.length untraced);
  List.iter print_metric metrics;
  print_result
    ~correct:(failed = 0 && drift = [] && phases_ok)
    ~attempted ~failed metrics

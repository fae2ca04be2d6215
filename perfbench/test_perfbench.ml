(* Self-checks of the end-to-end benchmark: its figures must be
   reproducible, and its workloads must be the simulations the committed
   BENCH_PR10 snapshot measured. *)

module B = Carlos_perfbench.Bench
module Json = Carlos_report.Json

(* With the applications' default parameters and seeds, the workloads
   reproduce the 4-node lrc/batched rows of BENCH_PR10.json. *)
let bench_pr10 w ~messages ~wire_bytes () =
  let s = B.run_one ~traced:false w None in
  let exact name = int_of_float (List.assoc name s.B.exact) in
  Alcotest.(check (option string)) "checks pass" None s.B.error;
  Alcotest.(check int) "messages" messages (exact "messages");
  Alcotest.(check int) "wire bytes" wire_bytes (exact "wire_bytes")

(* Run the benchmark executable and parse its last output line. *)
let run_main args =
  let argv = Array.of_list ("./main.exe" :: args) in
  let ic = Unix.open_process_args_in "./main.exe" argv in
  let out = In_channel.input_all ic in
  Alcotest.(check bool)
    "exit 0" true
    (Unix.close_process_in ic = Unix.WEXITED 0);
  match
    List.rev (List.filter (( <> ) "") (String.split_on_char '\n' out))
  with
  | last :: _ -> Json.parse last
  | [] -> Alcotest.fail "no output"

let metric json name =
  let m = Json.member name (Json.member "metrics" json) in
  match Json.to_float_opt (Json.member "value" m) with
  | Some v -> v
  | None -> Alcotest.failf "metric %s missing" name

let check_correct json =
  Alcotest.(check (option bool))
    "correct" (Some true)
    (Json.to_bool_opt (Json.member "correct" json))

let deterministic =
  [
    "alloc_mwords";
    "promoted_mwords";
    "sim_makespan_s";
    "sim_quiesce_s";
    "messages";
    "wire_bytes";
    "check_pass_ratio";
  ]

(* Two processes given the same arguments report identical values for
   every deterministic metric; host-timed metrics are free to differ. *)
let same_seed_twice workload () =
  let args =
    [ "--workload"; workload; "--seed"; "3"; "--seconds"; "0.5"; "--trace"; "0" ]
  in
  let a = run_main args and b = run_main args in
  check_correct a;
  List.iter
    (fun name ->
      Alcotest.(check (float 0.0)) name (metric a name) (metric b name))
    deterministic

(* A traced run reports the per-layer metrics, its phase spans account
   for its wall time, and tracing leaves the simulation unchanged (both
   folded into [correct]). *)
let traced_run () =
  Unix.putenv "OCAML_RUNTIME_EVENTS_DIR" (Sys.getcwd ());
  let j =
    run_main
      [
        "--workload"; "water-lock-lossy"; "--seed"; "0"; "--seconds"; "0.5";
        "--trace"; "1";
      ]
  in
  check_correct j;
  List.iter
    (fun name -> ignore (metric j name))
    [
      "sim.events";
      "gc.minor_host_s";
      "net.retransmits";
      "wire.retransmit";
      "audit.cp_s";
      "phase.simulate_s";
      "host.calibration_s";
      "obs.trace_overhead_s";
    ];
  Alcotest.(check bool)
    "loss is recovered" true
    (metric j "net.retransmits" > 0.0)

(* Known defect, pinned: water-lock with the auditor on (Invalidate, no
   loss) flags [request-vc-stale] on seeds 76 and 159 of 1..200 while the
   answer stays correct.  When the protocol or the auditor is fixed, this
   case should expect no violation. *)
let request_vc_stale () =
  let w = { B.water_lock with B.audit = true } in
  let sys = Carlos.System.create ~audit:true (w.B.config (Some 76)) in
  let o = w.B.simulate sys (Some 76) in
  Alcotest.(check bool) "answer correct" true (o.B.answer_ok ());
  let violations =
    match Carlos.System.auditor sys with
    | Some a ->
      List.map
        (Format.asprintf "%a" Carlos_audit.Audit.pp_violation)
        (Carlos_audit.Audit.violations a)
    | None -> []
  in
  List.iter print_endline violations;
  Alcotest.(check (list string))
    "violations"
    [
      "[request-vc-stale] n1 t=4.287652 msg#3609: REQUEST piggybacks \
       <24,215,130,189> but the sender is at <24,216,130,189>";
    ]
    violations

let () =
  Alcotest.run "perfbench"
    [
      ( "bench_pr10",
        [
          Alcotest.test_case "qsort-hybrid" `Slow
            (bench_pr10 B.qsort_hybrid ~messages:6257 ~wire_bytes:18_744_364);
          Alcotest.test_case "water-lock" `Quick
            (bench_pr10 B.water_lock ~messages:14_693 ~wire_bytes:5_808_505);
        ] );
      ( "determinism",
        [
          Alcotest.test_case "qsort-hybrid" `Slow
            (same_seed_twice "qsort-hybrid");
          Alcotest.test_case "water-lock" `Quick (same_seed_twice "water-lock");
          Alcotest.test_case "grid-32" `Slow (same_seed_twice "grid-32");
          Alcotest.test_case "water-lock-lossy" `Quick
            (same_seed_twice "water-lock-lossy");
        ] );
      ("traced", [ Alcotest.test_case "water-lock-lossy" `Quick traced_run ]);
      ( "known-defect",
        [
          Alcotest.test_case "request-vc-stale seed 76" `Quick request_vc_stale;
        ] );
    ]

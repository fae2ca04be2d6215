(* The end-to-end benchmark's engine: its workloads, one timed simulation,
   and the batch that runs one simulation per seed.

   Everything here goes through the simulator's public API: a simulation
   is [System.create], the application's [run], a check against the
   sequential reference, [Cost.conserved] and (when on) the auditor, and
   a read-out of the [Obs] registry.  Host times are wall-clock seconds;
   the figures in [exact_names] are virtual times, counts and allocation,
   and repeat for a given seed. *)

module System = Carlos.System
module Obs = Carlos_obs.Obs
module Wire = Carlos_obs.Cost
module Profile = Carlos_obs.Profile
module Audit = Carlos_audit.Audit
module Causal = Carlos_audit.Causal
module Engine = Carlos_sim.Engine
module Qsort = Carlos_apps.Qsort
module Water = Carlos_apps.Water
module Grid = Carlos_apps.Grid

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Workloads *)

(* What a finished application run hands back: its report and a check
   that compares the answer with the sequential reference. *)
type outcome = { report : System.report; answer_ok : unit -> bool }

type workload = {
  name : string;
  nominal_s : float;
      (* host seconds per simulation on the reference host; sizes the
         batch so that a run lasts about [--seconds] *)
  audit : bool; (* online auditor on *)
  config : int option -> System.config;
  simulate : System.t -> int option -> outcome;
}

(* [None] keeps the application's and the system's default seeds (the
   BENCH_PR10 rows); [Some s] seeds both the input and the cluster. *)
let with_seed seed (cfg : System.config) =
  match seed with None -> cfg | Some s -> { cfg with System.seed = s }

let qsort_params = function
  | None -> Qsort.default_params
  | Some s -> { Qsort.default_params with Qsort.seed = s }

let water_params = function
  | None -> Water.default_params
  | Some s -> { Water.default_params with Water.seed = s }

let grid_params = function
  | None -> Grid.default_params
  | Some s -> { Grid.default_params with Grid.seed = s }

(* The tolerance [Water.run] itself applies, re-derived here from the
   public reference. *)
let water_energy_ok p energy =
  let reference = Water.reference_energy p in
  Float.abs (energy -. reference) <= 1e-6 *. Float.max 1.0 (Float.abs reference)

let run_water sys seed =
  let p = water_params seed in
  let r = Water.run sys Water.Lock p in
  {
    report = r.Water.report;
    answer_ok = (fun () -> water_energy_ok p r.Water.energy);
  }

(* Paper Table 2, Hybrid-1: the forwarding work queue.  Merged diffs of
   hundreds of KB and a 78%-busy wire; the vm, diff fetching and the
   major heap show here, vector-clock metadata and event rate do not. *)
let qsort_hybrid =
  {
    name = "qsort-hybrid";
    nominal_s = 0.55;
    audit = false;
    config =
      (fun seed -> with_seed seed (Qsort.config ~nodes:4 (qsort_params seed)));
    simulate =
      (fun sys seed ->
        let r = Qsort.run sys Qsort.Hybrid1 (qsort_params seed) in
        {
          report = r.Qsort.report;
          answer_ok = (fun () -> r.Qsort.sorted && r.Qsort.leaves > 0);
        });
  }

(* Paper Table 3, one lock per molecule: ~240k events and ~15k small
   lock messages per simulation.  The engine, the lock protocol and the
   per-message path show here; big diffs and the major heap do not. *)
let water_lock =
  {
    name = "water-lock";
    nominal_s = 0.2;
    audit = false;
    config = (fun seed -> with_seed seed (System.default_config ~nodes:4));
    simulate = run_water;
  }

(* The paper's §3 motif on 32 nodes: the only workload where
   vector-clock and write-notice metadata matter, with the largest setup
   and a long drain after the last application fiber exits. *)
let grid_32 =
  {
    name = "grid-32";
    nominal_s = 0.38;
    audit = false;
    config =
      (fun seed -> with_seed seed (Grid.config ~nodes:32 (grid_params seed)));
    simulate =
      (fun sys seed ->
        let p = grid_params seed in
        let r = Grid.run sys Grid.Barrier p in
        {
          report = r.Grid.report;
          answer_ok =
            (fun () ->
              Int64.equal
                (Int64.bits_of_float r.Grid.checksum)
                (Int64.bits_of_float (Grid.reference p)));
        });
  }

(* water-lock with 2% per-frame datagram loss and the online auditor:
   the sliding window's recovery and lib/audit.  Not in BENCHMARK.json:
   about 1% of its seeds fail (perfbench/NOTES.md, "Known defects"). *)
let water_lock_lossy =
  {
    water_lock with
    name = "water-lock-lossy";
    nominal_s = 0.47;
    audit = true;
    config =
      (fun seed ->
        with_seed seed
          { (System.default_config ~nodes:4) with System.loss = 0.02 });
  }

let workloads = [ qsort_hybrid; water_lock; grid_32; water_lock_lossy ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

(* ------------------------------------------------------------------ *)
(* GC phases, read from the runtime's own event ring *)

(* Host nanoseconds spent in minor collections and major slices since
   the last [take], accumulated by polling a [Runtime_events] cursor on
   this process.  The ring is polled after every simulation and at the
   end of every major cycle, so it does not wrap in between. *)
module Gc_phases = struct
  type acc = {
    mutable minor_ns : int64;
    mutable major_ns : int64;
    mutable minor_t0 : int64;
    mutable major_t0 : int64;
    mutable lost : int; (* events the ring overwrote before a poll *)
  }

  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    acc : acc;
    alarm : Gc.alarm;
  }

  let ns = Runtime_events.Timestamp.to_int64

  let start () =
    Runtime_events.start ();
    let acc =
      { minor_ns = 0L; major_ns = 0L; minor_t0 = 0L; major_t0 = 0L; lost = 0 }
    in
    let span total t0 ts = Int64.add total (Int64.sub (ns ts) t0) in
    let callbacks =
      Runtime_events.Callbacks.create
        ~runtime_begin:(fun _ ts -> function
          | Runtime_events.EV_MINOR -> acc.minor_t0 <- ns ts
          | Runtime_events.EV_MAJOR_SLICE -> acc.major_t0 <- ns ts
          | _ -> ())
        ~runtime_end:(fun _ ts -> function
          | Runtime_events.EV_MINOR ->
            acc.minor_ns <- span acc.minor_ns acc.minor_t0 ts
          | Runtime_events.EV_MAJOR_SLICE ->
            acc.major_ns <- span acc.major_ns acc.major_t0 ts
          | _ -> ())
        ~lost_events:(fun _ n -> acc.lost <- acc.lost + n)
        ()
    in
    let cursor = Runtime_events.create_cursor None in
    let poll () = ignore (Runtime_events.read_poll cursor callbacks None) in
    let alarm = Gc.create_alarm poll in
    poll ();
    acc.minor_ns <- 0L;
    acc.major_ns <- 0L;
    { cursor; callbacks; acc; alarm }

  (* (minor seconds, major seconds) since the previous call. *)
  let take t =
    ignore (Runtime_events.read_poll t.cursor t.callbacks None);
    let secs x = Int64.to_float x *. 1e-9 in
    let r = (secs t.acc.minor_ns, secs t.acc.major_ns) in
    t.acc.minor_ns <- 0L;
    t.acc.major_ns <- 0L;
    r

  let lost t = t.acc.lost

  let stop t =
    Gc.delete_alarm t.alarm;
    Runtime_events.free_cursor t.cursor;
    Runtime_events.pause ()
end

(* ------------------------------------------------------------------ *)
(* Host speed *)

(* A fixed computation that shares no code with the simulator: build and
   fold a balanced map, then sort an array of floats, the same mix of
   allocation, pointer chasing and comparison the simulator does.  The
   shared host this benchmark runs on changes speed by 10-70% over
   seconds to minutes (other tenants); timing this just before and just
   after every simulation measures that speed, and host times are
   divided by it. *)
module Int_map = Map.Make (Int)

let calibrate () =
  let t0 = now () in
  let state = ref 12345 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state
  in
  let m = ref Int_map.empty in
  for _ = 1 to 20_000 do
    m := Int_map.add (next ()) (next ()) !m
  done;
  let folded = Int_map.fold (fun k v acc -> acc + (k lxor v)) !m 0 in
  let a = Array.init 30_000 (fun _ -> float_of_int (next ())) in
  Array.sort Float.compare a;
  ignore (Sys.opaque_identity (folded, a));
  now () -. t0

(* ------------------------------------------------------------------ *)
(* One simulation *)

type sample = {
  seed : int option;
  passed : bool;
  error : string option; (* exception, or the check that failed *)
  setup_s : float; (* System.create .. first simulated event *)
  simulate_s : float; (* first event .. application run returned *)
  verify_s : float; (* reference check, conservation, audit *)
  report_s : float; (* registry read-out *)
  outer_s : float; (* everything this sample's iteration spent *)
  calibration_s : float; (* mean of {!calibrate} just before and after *)
  exact : (string * float) list;
      (* per-simulation deterministic figures; empty if it raised *)
  layers : (string * float) list; (* traced runs only *)
}

let host_s s = s.setup_s +. s.simulate_s +. s.verify_s

(* The deterministic end-to-end figures, in output order.  All but
   [promoted_mwords] repeat exactly for a seed within one process; how
   many words a minor collection promotes also depends on when the major
   GC's pacing triggers collections, which depends on the heap the
   earlier simulations left, so [promoted_mwords] repeats exactly only
   for the same sequence of simulations in a fresh process. *)
let exact_names =
  [
    "alloc_mwords";
    "promoted_mwords";
    "sim_makespan_s";
    "sim_quiesce_s";
    "messages";
    "wire_bytes";
  ]

let counter obs name =
  Obs.counter_value obs ~node:Obs.global_node ~layer:Obs.Net name

let merged_hist snap ~layer ~prefix =
  List.fold_left
    (fun acc ((k : Obs.key), v) ->
      match v with
      | Obs.Hist_v h
        when k.layer = layer && String.starts_with ~prefix k.name ->
        Obs.Hist.merge acc h
      | _ -> acc)
    Obs.Hist.empty (Obs.bindings snap)

let series_peak snap ~layer ~name =
  List.fold_left
    (fun acc ((k : Obs.key), v) ->
      match v with
      | Obs.Series_v a when k.layer = layer && k.name = name ->
        Array.fold_left (fun m (_, x) -> Float.max m x) acc a
      | _ -> acc)
    0.0 (Obs.bindings snap)

let per_node_mean (report : System.report) f =
  let n = Array.length report.System.per_node in
  Array.fold_left (fun acc nr -> acc +. f nr) 0.0 report.System.per_node
  /. float_of_int (max 1 n)

let profile_seconds samples names =
  List.fold_left
    (fun acc (s : Profile.sample) ->
      if List.mem s.Profile.category names then acc +. s.Profile.seconds
      else acc)
    0.0 samples

let profile_count samples name =
  List.fold_left
    (fun acc (s : Profile.sample) ->
      if s.Profile.category = name then acc + s.Profile.count else acc)
    0 samples

(* Every per-layer figure of a traced simulation except the [gc.*] and
   [phase.*] ones, which the batch adds. *)
let layer_readout sys (report : System.report) =
  let obs = System.obs sys in
  let snap = Obs.snapshot obs in
  let f = float_of_int in
  let sum layer name = f (Obs.sum_counters obs ~layer name) in
  let prof = Profile.snapshot () in
  let pname = Profile.name in
  let wire = f (counter obs "medium.bytes") in
  let qdelay = merged_hist snap ~layer:Obs.Net ~prefix:"medium.queue_delay" in
  let lock_wait = merged_hist snap ~layer:Obs.Carlos ~prefix:"lock.wait:" in
  let skew = merged_hist snap ~layer:Obs.Carlos ~prefix:"barrier.skew:" in
  let wq_wait = merged_hist snap ~layer:Obs.Carlos ~prefix:"wq.wait:" in
  let diff_bytes = merged_hist snap ~layer:Obs.Vm ~prefix:"diff.bytes" in
  let cache_hits = sum Obs.Dsm "diff_cache_hits" in
  let cache_lookups = cache_hits +. sum Obs.Dsm "diff_cache_misses" in
  let cp_s, cp_wire_s, cp_hops =
    match (Causal.analyse obs).Causal.path with
    | Some p ->
      ( p.Causal.cp_end -. p.Causal.cp_start,
        p.Causal.cp_wire,
        f (List.length p.Causal.cp_hops) )
    | None -> (0.0, 0.0, 0.0)
  in
  [
    ("sim.events", f (Engine.events_executed (System.engine sys)));
    ("sim.fiber_spawns", f (profile_count prof (pname Profile.Fiber_spawn)));
    ("sim.run_host_s", profile_seconds prof [ pname Profile.Run ]);
    ("sim.event_host_s", profile_seconds prof [ pname Profile.Event ]);
    ( "sim.heap_host_s",
      profile_seconds prof
        [ pname Profile.Heap_push; pname Profile.Heap_pop ] );
    ( "sim.fiber_resume_host_s",
      profile_seconds prof [ pname Profile.Fiber_resume ] );
    ("vm.read_faults", sum Obs.Vm "read_faults");
    ("vm.write_faults", sum Obs.Vm "write_faults");
    ("vm.twins", sum Obs.Vm "twins");
    ("vm.diffs_created", sum Obs.Vm "diffs_created");
    ("vm.diff_bytes", diff_bytes.Obs.Hist.sum);
    ("dsm.intervals_created", sum Obs.Dsm "intervals_created");
    ("dsm.write_notices_sent", sum Obs.Dsm "write_notices_sent");
    ("dsm.write_notices_applied", sum Obs.Dsm "write_notices_applied");
    ("dsm.diff_requests", sum Obs.Dsm "diff_requests");
    ("dsm.diffs_applied", sum Obs.Dsm "diffs_applied");
    ("dsm.diff_bytes_fetched", sum Obs.Dsm "diff_bytes_fetched");
    ("dsm.page_fetches", sum Obs.Dsm "page_fetches");
    ( "dsm.diff_cache_hit_ratio",
      if cache_lookups > 0.0 then cache_hits /. cache_lookups else 0.0 );
    ( "dsm.metadata_peak_bytes",
      series_peak snap ~layer:Obs.Dsm ~name:"metadata_pressure" );
    ("dsm.gc_runs", f report.System.gc_runs);
    ("net.frames", f (counter obs "medium.frames"));
    ("net.acks", sum Obs.Net "sw.acks");
    ("net.acks_coalesced", sum Obs.Net "sw.acks_coalesced");
    ("net.wire_busy_s", Obs.sum_gauges obs ~layer:Obs.Net "medium.wire_busy");
    ("net.utilization", report.System.net_utilization);
    ("net.queue_delay_p50_s", Obs.Hist.percentile qdelay 50.0);
    ("net.queue_delay_p95_s", Obs.Hist.percentile qdelay 95.0);
    ("net.retransmits", sum Obs.Net "sw.retransmits");
    ("net.rto_timeouts", sum Obs.Net "sw.rto_timeouts");
    ("net.rto_deferrals", sum Obs.Net "sw.rto_deferrals");
    ("net.fast_retransmits", sum Obs.Net "sw.fast_retransmits");
    ("net.spurious_retransmits", sum Obs.Net "sw.spurious_retransmits");
    ("net.dropped_bytes", f (counter obs "datagram.dropped_bytes"));
    ( "net.retransmit_share",
      if wire > 0.0 then f (Wire.read obs Wire.Retransmit) /. wire else 0.0 );
  ]
  @ List.map (fun c -> ("wire." ^ Wire.name c, f (Wire.read obs c))) Wire.all
  @ [
      ("carlos.msgs.release", sum Obs.Carlos "msgs.release");
      ("carlos.msgs.release_nt", sum Obs.Carlos "msgs.release_nt");
      ("carlos.msgs.request", sum Obs.Carlos "msgs.request");
      ("carlos.msgs.none", sum Obs.Carlos "msgs.none");
      ("carlos.msgs.forwarded", sum Obs.Carlos "msgs.forwarded");
      ("carlos.lock_wait_p50_s", Obs.Hist.percentile lock_wait 50.0);
      ("carlos.lock_wait_p95_s", Obs.Hist.percentile lock_wait 95.0);
      ("carlos.barrier_skew_s", Obs.Hist.mean skew);
      ("carlos.wq_wait_p50_s", Obs.Hist.percentile wq_wait 50.0);
      ("carlos.time.user_s", per_node_mean report (fun n -> n.System.user));
      ("carlos.time.unix_s", per_node_mean report (fun n -> n.System.unix));
      ("carlos.time.carlos_s", per_node_mean report (fun n -> n.System.carlos));
      ("carlos.time.idle_s", per_node_mean report (fun n -> n.System.idle));
      ( "audit.violations",
        match System.auditor sys with
        | Some a -> f (Audit.violation_count a)
        | None -> 0.0 );
      ("audit.cp_s", cp_s);
      ("audit.cp_wire_s", cp_wire_s);
      ("audit.cp_hops", cp_hops);
      ("obs.trace_events", f (List.length (Obs.events obs)));
    ]

(* Run one complete simulation of [w] and time its phases.  A raised
   exception (including [System.Stalled]) or a failed check makes a
   failed sample; it never aborts the caller. *)
let run_one ?gc_phases ~traced w seed =
  let calibration_before = calibrate () in
  (* Start every simulation from an empty minor heap and a collected
     major heap, outside the timed span, so that its allocation figures
     repeat exactly and the previous simulation's garbage is not billed
     to it. *)
  Gc.full_major ();
  let outer0 = now () in
  if traced then Profile.reset ();
  let st0 = Gc.quick_stat () in
  let words0 = Gc.minor_words () in
  let t0 = now () in
  let t_first = ref nan in
  let attempt =
    match
      let sys = System.create ~audit:w.audit (w.config seed) in
      if traced then System.set_tracing sys true;
      Engine.at (System.engine sys) ~time:0.0 (fun () -> t_first := now ());
      let o = w.simulate sys seed in
      let t2 = now () in
      let answer = o.answer_ok () in
      let conserved = Wire.conserved (System.obs sys) in
      let violations =
        match System.auditor sys with
        | Some a -> Audit.violation_count a
        | None -> 0
      in
      (sys, o.report, answer, conserved, violations, t2)
    with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  let t3 = now () in
  let words1 = Gc.minor_words () in
  let st1 = Gc.quick_stat () in
  let t1 = if Float.is_nan !t_first then t3 else !t_first in
  let gc_count f = float_of_int (f st1 - f st0) in
  let sample =
    match attempt with
    | Error msg ->
      {
        seed;
        passed = false;
        error = Some msg;
        setup_s = t1 -. t0;
        simulate_s = t3 -. t1;
        verify_s = 0.0;
        report_s = 0.0;
        outer_s = 0.0;
        calibration_s = nan;
        exact = [];
        layers = [];
      }
    | Ok (sys, report, answer, conserved, violations, t2) ->
      let error =
        if not answer then Some "answer differs from the sequential reference"
        else if not conserved then Some "Cost.conserved is false"
        else if violations > 0 then
          Some (Printf.sprintf "auditor reported %d violation(s)" violations)
        else None
      in
      let exact =
        [
          ("alloc_mwords", (words1 -. words0) /. 1e6);
          ( "promoted_mwords",
            (st1.Gc.promoted_words -. st0.Gc.promoted_words) /. 1e6 );
          ("sim_makespan_s", report.System.wall);
          ("sim_quiesce_s", Engine.now (System.engine sys));
          ("messages", float_of_int report.System.messages);
          ( "wire_bytes",
            float_of_int (counter (System.obs sys) "medium.bytes") );
        ]
      in
      let layers = if traced then layer_readout sys report else [] in
      let t4 = now () in
      {
        seed;
        passed = error = None;
        error;
        setup_s = t1 -. t0;
        simulate_s = t2 -. t1;
        verify_s = t3 -. t2;
        report_s = t4 -. t3;
        outer_s = 0.0;
        calibration_s = nan;
        exact;
        layers =
          (if traced then
             ( "gc.minor_collections",
               gc_count (fun s -> s.Gc.minor_collections) )
             :: ( "gc.major_collections",
                  gc_count (fun s -> s.Gc.major_collections) )
             :: layers
           else []);
      }
  in
  let sample =
    match gc_phases with
    | Some g ->
      let minor, major = Gc_phases.take g in
      if sample.layers = [] then sample
      else
        {
          sample with
          layers =
            ("gc.minor_host_s", minor)
            :: ("gc.major_host_s", major)
            :: sample.layers;
        }
    | None -> sample
  in
  let outer_s = now () -. outer0 in
  let calibration_s = (calibration_before +. calibrate ()) /. 2.0 in
  { sample with outer_s; calibration_s }

(* ------------------------------------------------------------------ *)
(* Batches *)

(* The seeds a run of [w] covers: enough simulations to last about
   [seconds] on the reference host, and [seed] selects a disjoint block
   of that many consecutive seeds. *)
let seeds_of w ~seed ~seconds =
  let n = max 1 (int_of_float (Float.round (seconds /. w.nominal_s))) in
  List.init n (fun i -> (seed * n) + i + 1)

(* An untimed simulation, run before a batch: it pays the one-time costs
   (first-use tables, the vm's twin pool, growing the heap) that would
   otherwise make the batch's first simulation differ from the rest. *)
let warm_up w seed = ignore (run_one ~traced:false w (Some seed))

let run_batch ?gc_phases ~traced w seeds =
  List.map (fun s -> run_one ?gc_phases ~traced w (Some s)) seeds

(* The work-normalised benchmark: three workloads driven through the
   library's public API, each run untraced, traced and layer-timed from
   the same seed, with their simulated fingerprints cross-checked and
   host time reported per unit of simulated work.  [main.ml] is the
   command; README.md documents every metric. *)

module Vm = Cgc_runtime.Vm
module Mutator = Cgc_runtime.Mutator
module Config = Cgc_core.Config
module Collector = Cgc_core.Collector
module Gstats = Cgc_core.Gstats
module Tracer = Cgc_core.Tracer
module Card_clean = Cgc_core.Card_clean
module Verify = Cgc_core.Verify
module Sched = Cgc_sim.Sched
module Machine = Cgc_smp.Machine
module Fence = Cgc_smp.Fence
module Cost = Cgc_smp.Cost
module Pool = Cgc_packets.Pool
module Heap = Cgc_heap.Heap
module Obs = Cgc_obs.Obs
module Event = Cgc_obs.Event
module Export = Cgc_obs.Export
module Analysis = Cgc_prof.Analysis
module Json = Cgc_prof.Json
module Histogram = Cgc_util.Histogram
module Stats = Cgc_util.Stats
module Specjbb = Cgc_workloads.Specjbb
module Txmix = Cgc_workloads.Txmix
module Server = Cgc_server.Server
module Latency = Cgc_server.Latency
module Server_report = Cgc_server.Report
module Cluster = Cgc_cluster.Cluster
module Cluster_report = Cgc_cluster.Report
module Shard = Cgc_cluster.Shard
module Balancer = Cgc_cluster.Balancer
module Cluster_fault = Cgc_fault.Cluster_fault

(* ------------------------------------------------------------------ *)
(* Host clock and spans                                                *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds ns = float_of_int ns *. 1e-9

(* The process's CPU time, user plus system.  On a shared virtual host
   the wall clock also counts the time the hypervisor steals and the
   time the process waits for a CPU; the kernel leaves both out of CPU
   time. *)
let cpu_ns () =
  let t = Unix.times () in
  int_of_float ((t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9)

(* ------------------------------------------------------------------ *)
(* Reference speed                                                     *)

(* CPU time alone still moves by 20-50% within seconds on a shared host:
   other tenants' work on the same cores and caches slows every
   instruction.  So the untraced and traced runs also measure how fast
   the host runs a fixed reference computation, sampled all through the
   run: a profiling timer interrupts the process every 50 ms of CPU time
   and runs [ref_kernel] once.  The end-to-end host metrics count time
   in reference seconds: CPU seconds scaled by [ref_kernel_nominal_s]
   over the kernel's measured time per call, so that a host running the
   kernel in 1.5 ms counts a reference second per CPU second.

   The kernel is independent of the library and must never change, nor
   must the nominal time, or results stop being comparable across
   versions.  It does what a simulator step does most: short-lived
   allocation, hashing, list and table updates.  On the hardware in
   README.md it takes 1.3 to 2.3 ms, as the load of other tenants
   varies. *)
let ref_kernel () =
  let h = Hashtbl.create 256 in
  let l = ref [] in
  for i = 1 to 10_000 do
    l := (i, string_of_int (i land 255)) :: !l;
    if i land 1023 = 0 then l := [];
    Hashtbl.replace h (i land 1023) i
  done;
  ignore (Sys.opaque_identity (List.length !l))

let ref_period_s = 0.05
let ref_kernel_nominal_s = 0.0015

(* CPU time spent in the kernel, and its calls, since the process
   started. *)
let ref_ns = ref 0
let ref_calls = ref 0

let ref_tick _ =
  let c0 = cpu_ns () in
  ref_kernel ();
  ref_ns := !ref_ns + (cpu_ns () - c0);
  incr ref_calls

let set_timer period =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = period; it_value = period })

(* [with_reference f] runs [f] with the reference timer armed and
   returns its result with the kernel's mean CPU time per call (ns) over
   the run, or [nan] if the timer never fired. *)
let with_reference f =
  let ns0 = !ref_ns and calls0 = !ref_calls in
  Sys.set_signal Sys.sigprof (Sys.Signal_handle ref_tick);
  set_timer ref_period_s;
  let stop () =
    set_timer 0.0;
    Sys.set_signal Sys.sigprof Sys.Signal_ignore;
    let calls = !ref_calls - calls0 in
    if calls = 0 then nan
    else float_of_int (!ref_ns - ns0) /. float_of_int calls
  in
  match f () with
  | r -> (r, stop ())
  | exception e ->
      ignore (stop ());
      raise e

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

type span = {
  id : int;
  parent : int;  (** 0 for a top-level span *)
  name : string;
  start_ns : int;  (** monotonic clock *)
  stop_ns : int;
  cpu_ns : int;  (** CPU time inside the span, less the reference kernel's *)
}

(* Every span is kept in memory, newest first; [main] writes them out
   when it ends. *)
let spans_rev : span list ref = ref []
let next_span = ref 0
let open_span = ref 0

(* [timed name f] runs [f] inside a span and returns its result with the
   CPU time it took, less the time the reference kernel ran meanwhile. *)
let timed name f =
  let parent = !open_span in
  incr next_span;
  let id = !next_span in
  open_span := id;
  let start_ns = now_ns () and start_cpu = cpu_ns () and start_ref = !ref_ns in
  let close () =
    let cpu = cpu_ns () - start_cpu - (!ref_ns - start_ref) in
    let stop_ns = now_ns () in
    open_span := parent;
    spans_rev :=
      { id; parent; name; start_ns; stop_ns; cpu_ns = cpu } :: !spans_rev;
    cpu
  in
  match f () with
  | r -> (r, close ())
  | exception e ->
      ignore (close ());
      raise e

let spans () = List.rev !spans_rev

(* ------------------------------------------------------------------ *)
(* Percentile rule                                                     *)

(* A timing is reported as its median plus the highest percentile of
   this ladder that still has at least ten samples above its rank. *)
let tail_ladder = [ 99.99; 99.9; 99.0; 90.0 ]

let beyond ~n p = if n <= 0 then 0 else n - Stats.nearest_rank ~n p

let tail_percentile n =
  List.find_opt (fun p -> beyond ~n p >= 10) tail_ladder

(* ------------------------------------------------------------------ *)
(* Failures                                                            *)

type failures = {
  shed : int;  (** refused at the door: queue full or throttled *)
  timed_out : int;
  lost : int;  (** lost by the fleet: fleet-shed, unroutable, crashed *)
  unfinished : int;  (** admitted but not finished when the window closed *)
}

let no_failures = { shed = 0; timed_out = 0; lost = 0; unfinished = 0 }
let failed f = f.shed + f.timed_out + f.lost + f.unfinished

let failed_frac ~attempted f =
  if attempted <= 0 then 0.0
  else float_of_int (failed f) /. float_of_int attempted

(* One server's failures over a measured window.  Its requests still
   queued or in service when the window closes count as unfinished; the
   attempts are [totals.arrived], the arrivals drawn in the window.
   [arrived - completed] is not the failure count: requests admitted
   during a warm-up complete inside the window. *)
let server_failures srv =
  let t = Server.totals srv in
  {
    shed = t.Server.shed_full + t.Server.shed_throttled;
    timed_out = t.Server.timed_out;
    lost = 0;
    unfinished = Server.queue_depth srv + Server.in_flight srv;
  }

(* ------------------------------------------------------------------ *)
(* Layer timing: an on_advance hook billing host time to GC state      *)

type state = Idle | Marking | Stopped

type buckets = {
  mutable idle_ns : int;  (** collector Idle, world running *)
  mutable marking_ns : int;  (** collector Marking, world running *)
  mutable stw_ns : int;  (** world stopped, or collector Finalizing *)
  mutable minor_ns : int;  (** intervals during which a minor ran *)
  mutable dispatches : int;
  mutable window_start : int;
  mutable window_stop : int;
  mutable last_ns : int;
  mutable last_state : state;
  mutable last_minors : int;
  (* The tracer's retrace count and the card cleaner's redirty count
     restart at every cycle start; the hook folds each cycle's final
     value (the last one seen before the drop) into a window total. *)
  mutable retraced : int;
  mutable last_retraced : int;
  mutable redirtied : int;
  mutable last_redirtied : int;
}

let state vm =
  if Sched.world_stopped (Vm.sched vm) then Stopped
  else
    match Collector.phase (Vm.collector vm) with
    | Collector.Idle -> Idle
    | Collector.Marking -> Marking
    | Collector.Finalizing -> Stopped

let bill b ns =
  match b.last_state with
  | Idle -> b.idle_ns <- b.idle_ns + ns
  | Marking -> b.marking_ns <- b.marking_ns + ns
  | Stopped -> b.stw_ns <- b.stw_ns + ns

let fold_restarting ~total ~last cur =
  if cur < last then (total + last, cur) else (total, cur)

(* Each interval between two dispatches is billed to the state sampled
   at its start, the convention the shard timeline sampler uses. *)
let observe vm b t =
  let dt = t - b.last_ns in
  bill b dt;
  let minors = (Vm.gc_stats vm).Gstats.minors in
  if minors <> b.last_minors then begin
    b.minor_ns <- b.minor_ns + dt;
    b.last_minors <- minors
  end;
  let coll = Vm.collector vm in
  let r, lr =
    fold_restarting ~total:b.retraced ~last:b.last_retraced
      (Tracer.retraced_slots (Collector.tracer coll))
  in
  b.retraced <- r;
  b.last_retraced <- lr;
  let d, ld =
    fold_restarting ~total:b.redirtied ~last:b.last_redirtied
      (Card_clean.redirtied (Collector.cleaner coll))
  in
  b.redirtied <- d;
  b.last_redirtied <- ld;
  b.last_ns <- t;
  b.last_state <- state vm

(* [layer_window vm f] runs the measured window [f] with the hook
   billing every dispatch interval; the buckets sum exactly to
   [window_stop - window_start]. *)
let layer_window vm f =
  let coll = Vm.collector vm in
  let start_retraced = Tracer.retraced_slots (Collector.tracer coll) in
  let start_redirtied = Card_clean.redirtied (Collector.cleaner coll) in
  let b =
    {
      idle_ns = 0; marking_ns = 0; stw_ns = 0; minor_ns = 0; dispatches = 0;
      window_start = 0; window_stop = 0; last_ns = 0; last_state = state vm;
      last_minors = (Vm.gc_stats vm).Gstats.minors;
      retraced = - start_retraced; last_retraced = start_retraced;
      redirtied = - start_redirtied; last_redirtied = start_redirtied;
    }
  in
  Sched.on_advance (Vm.sched vm) (fun _ ->
      b.dispatches <- b.dispatches + 1;
      observe vm b (now_ns ()));
  b.window_start <- now_ns ();
  b.last_ns <- b.window_start;
  f ();
  b.window_stop <- now_ns ();
  observe vm b b.window_stop;
  b.retraced <- b.retraced + b.last_retraced;
  b.redirtied <- b.redirtied + b.last_redirtied;
  b

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type workload = Jbb | Serve_gen | Fleet

let workloads = [ ("jbb", Jbb); ("serve-gen", Serve_gen); ("fleet", Fleet) ]
let workload_name w = fst (List.find (fun (_, x) -> x = w) workloads)
let workload_of_name s = List.assoc_opt s workloads

type kind = Untraced | Traced | Layer_timed | Verified

let kind_name = function
  | Untraced -> "untraced"
  | Traced -> "traced"
  | Layer_timed -> "layer-timed"
  | Verified -> "verified"

(* Simulated windows, in ms.  The fleet has no warm-up: Cluster.run
   offers no seam between construction and the first simulated cycle. *)
type windows = { warmup_ms : float; ms : float }

let default_windows = function
  | Jbb -> { warmup_ms = 500.0; ms = 2000.0 }
  | Serve_gen -> { warmup_ms = 1000.0; ms = 6000.0 }
  | Fleet -> { warmup_ms = 0.0; ms = 3000.0 }

(* Per-thread event-ring capacity of the traced runs; a full ring costs
   five int arrays of this length.  The busiest jbb mutator emits about
   50k events per simulated second; serve-gen's arrival process one
   event per request, 120k per window. *)
let trace_ring = function Serve_gen -> 1 lsl 18 | Jbb | Fleet -> 1 lsl 17

(* The MMU window: jbb's concurrent phase hands its eight mutators so
   much tracing that some 20 ms and 50 ms windows leave them no time at
   all, so shorter windows read 0 there. *)
let mmu_window_ms = 100.0

let jbb_warehouses = 8
let serve_rate = 20_000.0
let fleet_rate = 16_000.0
let fleet_shards = 4
let cycles_per_ms = float_of_int Cost.default.Cost.cycles_per_ms

(* The jbb VM: Specjbb.setup's warehouses (48 MB, 4 CPUs, 60% residency
   at 8 warehouses), with each transaction's simulated response time
   recorded host-side — [Txmix.body] with a clock read around every
   transaction, which charges nothing.  The test suite checks that this
   reproduces Specjbb.setup's simulation exactly. *)
let jbb_vm ~gc ~seed ~trace lat =
  let vm =
    Vm.create
      (Vm.config ~heap_mb:48.0 ~ncpus:4 ~seed ~gc ~trace
         ~trace_ring:(trace_ring Jbb) ())
  in
  let nslots = Heap.nslots (Vm.heap vm) in
  let target = int_of_float (float_of_int nslots *. 0.6) / jbb_warehouses in
  let profile = Txmix.scale_residency Specjbb.base_profile ~target_slots:target in
  for w = 1 to jbb_warehouses do
    Vm.spawn_mutator vm
      ~name:(Printf.sprintf "warehouse-%d" w)
      (fun m ->
        let dir = Txmix.build_resident profile m in
        while not (Mutator.stopped m) do
          let t0 = Mutator.now_cycles m in
          Txmix.transaction profile m ~dir;
          Stats.add lat
            (float_of_int (Mutator.now_cycles m - t0) /. cycles_per_ms)
        done)
  done;
  Vm.on_reset vm (fun () -> Stats.clear lat);
  vm

let serve_vm ~gc ~seed ~trace =
  let vm =
    Vm.create
      (Vm.config ~heap_mb:24.0 ~ncpus:4 ~seed ~gc ~trace
         ~trace_ring:(trace_ring Serve_gen) ())
  in
  ( vm,
    Server.create
      (Server.cfg ~rate_per_s:serve_rate ~queue_cap:256 ~workers:4
         ~slo_ms:50.0 ())
      vm )

let fleet_cfg ~gc ~seed ~trace ~ms =
  Cluster.cfg ~shards:fleet_shards ~policy:Balancer.Round_robin ~gc
    ~heap_mb:16.0 ~slo_ms:50.0 ~ms ~seed
    ~chaos:Cluster_fault.Shard_brownout ~chaos_seed:seed ~trace
    ~trace_ring:(trace_ring Fleet)
    ~rate_per_s:fleet_rate ()

(* The request-latency tail each workload reports, a percentile the
   rule allows at its sample count (about 118k jbb transactions, 120k
   serve-gen and 48k fleet requests per window).  jbb's p99.9 would sit
   on the knee where transactions start to wait out a GC pause, and
   jumps between seeds; its p99.99 is the pause. *)
let tail_pct = function Jbb -> 99.99 | Serve_gen | Fleet -> 99.9

let gc_of = function
  | Jbb | Fleet -> Config.default
  | Serve_gen -> Config.gen

(* ------------------------------------------------------------------ *)
(* One run                                                             *)

type run = {
  fp : (string * float) list;
      (** simulated fingerprint: identical for every run of one seed *)
  obs : (string * float) list;
      (** simulated values only the traced run sees (MMU, events) *)
  host : (string * float) list;  (** host seconds and per-layer ratios *)
  attempted : int;
  failures : failures;
  problems : string list;  (** failed correctness checks *)
}

let peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let hist_p h p = if Histogram.count h = 0 then 0.0 else Histogram.percentile h p
let f = float_of_int

(* A distribution's fingerprint entries: count, median, the tail at
   [tail] percent, maximum. *)
let dist prefix ~tail ~n ~p ~max =
  [
    (prefix ^ ".n", f n);
    (prefix ^ ".p50", if n = 0 then 0.0 else p 50.0);
    (prefix ^ ".tail", if n = 0 then 0.0 else p tail);
    (prefix ^ ".max", if n = 0 then 0.0 else max);
  ]

let hist_dist prefix ~tail h =
  dist prefix ~tail ~n:(Histogram.count h) ~p:(Histogram.percentile h)
    ~max:(Histogram.max h)

let stats_dist prefix ~tail s =
  dist prefix ~tail ~n:(Stats.count s) ~p:(Stats.percentile s)
    ~max:(Stats.max s)

(* Each completed request's exact end-to-end latency, from the µs its
   Req_done event carries; the server's own histograms are bucketed. *)
let add_request lat (e : Event.t) =
  if e.Event.code = Event.Req_done then Stats.add lat (f e.Event.arg /. 1000.0)

let validated what = function
  | Ok _ -> []
  | Error e -> [ what ^ " rejected its report: " ^ e ]

(* Window counters of a VM, read after [reset_stats] and again after the
   measured run; Sched's cycle counters never reset, so they are
   differenced. *)
let vm_counters vm =
  let gs = Vm.gc_stats vm and mach = Vm.machine vm in
  let pool = Collector.pool (Vm.collector vm) in
  [
    ("busy_cycles", f (Sched.busy_cycles (Vm.sched vm)));
    ("idle_cycles", f (Sched.idle_cycles (Vm.sched vm)));
    ("tx", f (Vm.total_transactions vm));
    ("alloc_slots", f gs.Gstats.total_alloc_slots);
    ("traced_conc_slots", Stats.sum gs.Gstats.traced_conc_slots);
    ("traced_stw_slots", Stats.sum gs.Gstats.traced_stw_slots);
    ("cards_conc", Stats.sum gs.Gstats.conc_cards);
    ("cards_stw", Stats.sum gs.Gstats.stw_cards);
    ("gc_cycles", f gs.Gstats.cycles);
    ("halted_cycles", f gs.Gstats.halted_cycles);
    ( "degrade_rungs",
      f
        (gs.Gstats.degrade_force_finish + gs.Gstats.degrade_full_stw
       + gs.Gstats.degrade_compact) );
    ("minors", f gs.Gstats.minors);
    ("promoted_slots", f gs.Gstats.promoted_slots);
    ("minor_deferred", f gs.Gstats.minor_deferred);
    ("fences", f (Fence.total mach.Machine.fences));
    ("cas", f mach.Machine.cas_ops);
    ("packet_ops", f (Pool.get_ops pool + Pool.put_ops pool));
    ("overflow_events", f gs.Gstats.overflow_events);
  ]

let diff a b = List.map2 (fun (k, x) (_, y) -> (k, y -. x)) a b

let server_fp ~tail t =
  [
    ("server.arrived", f t.Server.arrived);
    ("server.admitted", f t.Server.admitted);
    ("server.completed", f t.Server.completed);
    ("server.shed", f (t.Server.shed_full + t.Server.shed_throttled));
    ("server.timed_out", f t.Server.timed_out);
    ("server.max_depth", f t.Server.max_depth);
  ]
  @ hist_dist "req" ~tail (Latency.e2e t.Server.lat)

(* What the current VM run has attempted so far, for a run that raises. *)
let attempted_so_far = ref (fun () -> 0)

(* At a fixed horizon an open loop always has a few requests queued or
   in service, and they would count as unfinished.  The measured window
   of a server therefore runs on past its nominal length, in 0.1 ms
   steps, to the first step end at which the server holds no request
   (within 1 ms at 20k req/s); if that takes more than 50 ms the
   requests left count as unfinished. *)
let idle_step_ms = 0.1
let idle_cap_ms = 50.0

let run_to_idle vm srv =
  let busy () = Server.queue_depth srv + Server.in_flight srv > 0 in
  let rec go left =
    if left > 0 && busy () then begin
      Vm.run vm ~ms:idle_step_ms;
      go (left - 1)
    end
  in
  go (int_of_float (idle_cap_ms /. idle_step_ms))

(* Build, warm up, reset and measure one VM workload. *)
let run_vm w ~kind ~seed ~win =
  let traced = kind = Traced in
  let gc = gc_of w in
  let gc = if kind = Verified then { gc with Config.verify = true } else gc in
  let lat = Stats.create () in
  let (vm, srv), build_ns =
    timed "construct" (fun () ->
        match w with
        | Jbb -> (jbb_vm ~gc ~seed ~trace:traced lat, None)
        | Serve_gen ->
            let vm, srv = serve_vm ~gc ~seed ~trace:traced in
            (vm, Some srv)
        | Fleet -> invalid_arg "run_vm: fleet")
  in
  if traced then begin
    Vm.enable_profiler vm;
    Option.iter Server.attach_probes srv
  end;
  (attempted_so_far :=
     fun () ->
       match srv with
       | None -> Vm.total_transactions vm
       | Some s -> (Server.totals s).Server.arrived);
  let (), warmup_ns =
    timed "Vm.run warmup" (fun () -> Vm.run vm ~ms:win.warmup_ms)
  in
  let (), _ = timed "Vm.reset_stats" (fun () -> Vm.reset_stats vm) in
  let c0 = vm_counters vm in
  let start_ms = Vm.now_ms vm in
  let measure () =
    Vm.run vm ~ms:win.ms;
    Option.iter (run_to_idle vm) srv
  in
  let buckets = ref None in
  let (), window_ns =
    timed "Vm.run measured" (fun () ->
        if kind = Layer_timed then buckets := Some (layer_window vm measure)
        else measure ())
  in
  let window_ms = Vm.now_ms vm -. start_ms in
  let c = diff c0 (vm_counters vm) in
  let get k = List.assoc k c in
  let gs = Vm.gc_stats vm in
  let pool = Collector.pool (Vm.collector vm) in
  let pauses, attempted, failures =
    match srv with
    | None ->
        (* jbb's pauses are the world-stopping major pauses; a closed
           loop refuses nothing, so only a raise fails transactions. *)
        ( hist_dist "pause" ~tail:99.0 gs.Gstats.pause_ms,
          int_of_float (get "tx"),
          no_failures )
    | Some s ->
        (* serve-gen runs no major cycle: its pauses are the minors,
           each stopping the one allocating worker. *)
        ( hist_dist "pause" ~tail:99.0 gs.Gstats.minor_pause_ms,
          (Server.totals s).Server.arrived,
          server_failures s )
  in
  let fp =
    c
    @ [
        ("window_ms", window_ms);
        ("packets_max_in_use", f (Pool.max_in_use pool));
        ("minor_pause_p99", hist_p gs.Gstats.minor_pause_ms 99.0);
      ]
    @ pauses
    @ (match srv with None -> stats_dist "req" ~tail:(tail_pct Jbb) lat | Some s -> server_fp ~tail:(tail_pct w) (Server.totals s))
    @ [ ("failed", f (failed failures)) ]
  in
  let report_problems =
    match srv with
    | None -> []
    | Some s ->
        let problems, _ =
          timed "Server report" (fun () ->
              let json =
                Server_report.to_json (Server.the_cfg s) ~ran_ms:win.ms
                  (Server.totals s)
              in
              validated "Cgc_server.Report.validate"
                (Server_report.validate (Json.to_string json)))
        in
        problems
  in
  let obs, traced_host, obs_problems =
    if not traced then ([], [], [])
    else begin
      let o = Vm.obs vm in
      let _json, export_ns = timed "Vm.trace_json" (fun () -> Vm.trace_json vm) in
      let (events, a), analyse_ns =
        timed "Analysis.analyse_events" (fun () ->
            let events = Obs.events_array o in
            ( events,
              Analysis.analyse_events ~mmu_windows_ms:[ mmu_window_ms ]
                ~cycles_per_us:(Vm.cycles_per_us vm) events ))
      in
      let mmu =
        match a.Analysis.mmu with [ m ] -> m.Analysis.mmu | _ -> nan
      in
      let lat = Stats.create () in
      Array.iter (add_request lat) events;
      ( [
          ("mmu", mmu);
          ("obs.events", f (Obs.emitted o));
          ("obs.dropped", f (Obs.dropped o));
        ]
        @ (if srv = None then [] else stats_dist "treq" ~tail:(tail_pct w) lat),
        [ ("obs.export_s", seconds export_ns); ("prof.analyse_s", seconds analyse_ns) ],
        if Obs.dropped o > 0 then
          [ Printf.sprintf "traced run dropped %d events" (Obs.dropped o) ]
        else [] )
    end
  in
  let layer_host =
    match !buckets with
    | None -> []
    | Some b ->
        let traced_slots = get "traced_conc_slots" +. get "traced_stw_slots" in
        let per x n = if n > 0.0 then x /. n else 0.0 in
        [
          ("sim.dispatches", f b.dispatches);
          ( "sim.host_ns_per_dispatch",
            per (f (b.window_stop - b.window_start)) (f b.dispatches) );
          ("core.idle_host_s", seconds b.idle_ns);
          ("core.marking_host_s", seconds b.marking_ns);
          ("core.stw_host_s", seconds b.stw_ns);
          ( "tracer.host_ns_per_slot",
            per (f (b.marking_ns + b.stw_ns)) traced_slots );
          ("tracer.retraced_frac", per (f b.retraced) traced_slots);
          ( "cards.redirtied_frac",
            per (f b.redirtied) (get "cards_conc" +. get "cards_stw") );
          ("gen.minor_host_s", seconds b.minor_ns);
        ]
  in
  {
    fp;
    obs;
    host =
      [
        ("workloads.build_s", seconds build_ns);
        ("runtime.warmup_s", seconds warmup_ns);
        ("window_s", seconds window_ns);
        ("peak_mb", peak_mb ());
      ]
      @ traced_host @ layer_host;
    attempted;
    failures;
    problems = report_problems @ obs_problems;
  }

let fleet_setup_reps = 5

(* The fleet's set-up: building its shard VMs and servers the way
   Cluster.run does before the first simulated cycle, timed standalone
   because Cluster.run has no seam there. *)
let fleet_setup (cfg : Cluster.cfg) =
  let build () =
    snd
      (timed "fleet shard construction" (fun () ->
           for k = 0 to cfg.Cluster.shards - 1 do
             let vm =
               Vm.create
                 (Vm.config ~heap_mb:cfg.Cluster.heap_mb
                    ~ncpus:cfg.Cluster.ncpus ~seed:(Cluster.shard_seed cfg k)
                    ~gc:cfg.Cluster.gc ())
             in
             ignore (Server.create cfg.Cluster.server vm)
           done))
  in
  (* About 50 ms each, the shortest host time measured: the median of
     several builds. *)
  List.nth
    (List.sort compare (List.init fleet_setup_reps (fun _ -> build ())))
    (fleet_setup_reps / 2)

(* The traced fleet's pauses and MMU, from each incarnation's exported
   trace: the pause median pools every incarnation's world-stopping
   pauses, the MMU is the worst incarnation's. *)
let fleet_trace_values (r : Cluster.result) =
  let pauses = Stats.create () and lat = Stats.create () in
  let mmu = ref infinity and problems = ref [] in
  Array.iter
    (fun (s : Shard.result) ->
      match s.Shard.trace with
      | None -> problems := "traced fleet shard exported no trace" :: !problems
      | Some json -> (
          match Export.parse_chrome_json json with
          | Error e -> problems := ("fleet trace does not parse: " ^ e) :: !problems
          | Ok (meta, events) ->
              let per_ms = meta.Export.cycles_per_us *. 1000.0 in
              List.iter
                (fun (e : Event.t) ->
                  add_request lat e;
                  if e.Event.code = Event.Stw_pause then
                    Stats.add pauses (f e.Event.dur /. per_ms))
                events;
              let a =
                Analysis.analyse ~mmu_windows_ms:[ mmu_window_ms ]
                  ~cycles_per_us:meta.Export.cycles_per_us events
              in
              List.iter
                (fun (m : Analysis.mmu_point) ->
                  mmu := Float.min !mmu m.Analysis.mmu)
                a.Analysis.mmu))
    r.Cluster.shards;
  (pauses, lat, !mmu, !problems)

let run_fleet ~kind ~seed ~win =
  let traced = kind = Traced in
  let gc = gc_of Fleet in
  let gc = if kind = Verified then { gc with Config.verify = true } else gc in
  let cfg = fleet_cfg ~gc ~seed ~trace:traced ~ms:win.ms in
  let r, window_ns = timed "Cluster.run" (fun () -> Cluster.run cfg) in
  let sum g = Array.fold_left (fun acc s -> acc + g s) 0 r.Cluster.shards in
  let obs, traced_host, obs_problems =
    if not traced then ([], [], [])
    else begin
      let (pauses, lat, mmu, problems), analyse_ns =
        timed "parse + Analysis.analyse" (fun () -> fleet_trace_values r)
      in
      let dropped = sum (fun s -> s.Shard.dropped) in
      ( [
          ( "pause.p50",
            if Stats.count pauses = 0 then 0.0 else Stats.percentile pauses 50.0
          );
          ("pause.n", f (Stats.count pauses));
          ("mmu", mmu);
          ("obs.events", f (sum (fun s -> s.Shard.emitted)));
          ("obs.dropped", f dropped);
        ]
        @ stats_dist "treq" ~tail:(tail_pct Fleet) lat,
        (* The shards export their traces inside Cluster.run. *)
        [ ("obs.export_s", 0.0); ("prof.analyse_s", seconds analyse_ns) ],
        problems
        @
        if dropped > 0 then
          [ Printf.sprintf "traced fleet dropped %d events" dropped ]
        else [] )
    end
  in
  (* Read before the set-up probe builds its throwaway shards. *)
  let peak = peak_mb () in
  let build_ns = fleet_setup cfg in
  let tot = Cluster.fleet_totals r in
  let ch = r.Cluster.chaos in
  (* Routed to an incarnation but never consumed by it. *)
  let unarrived s = s.Shard.routed - s.Shard.totals.Server.arrived in
  let failures =
    {
      shed = tot.Server.shed_full + tot.Server.shed_throttled;
      timed_out = tot.Server.timed_out;
      lost =
        ch.Cluster.shed_fleet + ch.Cluster.lost_unroutable
        + Cluster.lost_crashed r
        + sum (fun s -> if s.Shard.crashed then unarrived s else 0);
      unfinished = 0;
    }
  in
  (* Cluster.run stops every shard at a fixed horizon, with no seam to
     run on until the fleet is idle the way serve-gen does.  The few
     requests then queued, in service or in transit on a live shard have
     no outcome yet: they are pending, neither attempted nor failed. *)
  let pending =
    sum (fun s ->
        if s.Shard.crashed then 0 else s.Shard.unfinished + unarrived s)
  in
  (* Cluster.run exposes no shard VM, so the fleet's simulated cycles
     are the processor cycles its incarnations ran: run length x CPUs. *)
  let cpu_cycles =
    Array.fold_left
      (fun acc s ->
        acc +. (s.Shard.run_ms *. f cfg.Cluster.ncpus *. cycles_per_ms))
      0.0 r.Cluster.shards
  in
  let fp =
    [
      ("window_ms", win.ms);
      ("busy_cycles", cpu_cycles);
      ("tx", f tot.Server.completed);
      ("gc_cycles", f (sum (fun s -> s.Shard.gc_cycles)));
      ( "pause.max",
        Array.fold_left
          (fun acc s -> Float.max acc s.Shard.max_pause_ms)
          0.0 r.Cluster.shards );
      ("cluster.drawn", f ch.Cluster.drawn);
      ("cluster.routed", f (sum (fun s -> s.Shard.routed)));
      ("cluster.retried", f ch.Cluster.retried);
      ("cluster.redirected", f ch.Cluster.redirected);
      ("cluster.lost", f failures.lost);
      ("cluster.incarnations", f (Array.length r.Cluster.shards));
      ("failed", f (failed failures));
      ("pending", f pending);
    ]
    @ server_fp ~tail:(tail_pct Fleet) tot
  in
  let report_problems, _ =
    timed "Cluster report" (fun () ->
        validated "Cgc_cluster.Report.validate"
          (Cluster_report.validate (Json.to_string (Cluster_report.to_json r))))
  in
  (* Every drawn arrival is completed, failed or pending; the identity
     proves the failure count misses nothing. *)
  let conservation =
    if tot.Server.completed + failed failures + pending <> ch.Cluster.drawn
    then
      [
        Printf.sprintf
          "fleet conservation: completed %d + failed %d + pending %d <> drawn \
           %d"
          tot.Server.completed (failed failures) pending ch.Cluster.drawn;
      ]
    else []
  in
  {
    fp;
    obs;
    host =
      [
        ("workloads.build_s", seconds build_ns);
        ("runtime.warmup_s", 0.0);
        ("window_s", seconds window_ns);
        ("peak_mb", peak);
      ]
      @ traced_host;
    attempted = ch.Cluster.drawn - pending;
    failures;
    problems = report_problems @ conservation @ obs_problems;
  }

(* A run that raises one of the library's typed failures fails every
   operation it attempted: [Error (why, attempted)].  Any other exception
   is a defect and propagates. *)
let run w ~kind ~seed ~win =
  attempted_so_far := (fun () -> 0);
  let go () =
    match w with
    | Fleet -> run_fleet ~kind ~seed ~win
    | Jbb | Serve_gen -> run_vm w ~kind ~seed ~win
  in
  try
    Ok
      (match kind with
      | Untraced | Traced ->
          (* The layer hook would bill the kernel's calls to the
             collector's state, and the verified run measures only an
             overhead, so they run without the reference timer. *)
          let r, per_call = with_reference go in
          { r with host = ("ref_kernel_s", per_call *. 1e-9) :: r.host }
      | Layer_timed | Verified -> go ())
  with
  | Collector.Out_of_memory d ->
      Error ("Out_of_memory: " ^ Collector.oom_to_string d, !attempted_so_far ())
  | Verify.Invariant_violation m ->
      Error ("Invariant_violation: " ^ m, !attempted_so_far ())
  | Cluster.Fleet_unavailable u ->
      Error
        ( "Fleet_unavailable: " ^ Cluster.unavailable_to_string u,
          u.Cluster.placed + u.Cluster.lost )

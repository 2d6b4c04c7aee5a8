module Sched = Cgc_sim.Sched
module Collector = Cgc_core.Collector
module Config = Cgc_core.Config
module Gstats = Cgc_core.Gstats
module Heap = Cgc_heap.Heap
module Machine = Cgc_smp.Machine
module Weakmem = Cgc_smp.Weakmem
module Fence = Cgc_smp.Fence
module Cost = Cgc_smp.Cost
module Pool = Cgc_packets.Pool
module Prng = Cgc_util.Prng
module Fault = Cgc_fault.Fault
module Stats = Cgc_util.Stats
module Histogram = Cgc_util.Histogram
module Obs = Cgc_obs.Obs
module Export = Cgc_obs.Export
module Sampler = Cgc_prof.Sampler
module Series = Cgc_prof.Series
module Card_table = Cgc_heap.Card_table
module Tracer = Cgc_core.Tracer
module Gen = Cgc_gen.Gen

type config = {
  heap_mb : float;
  ncpus : int;
  seed : int;
  gc : Config.t;
  wm_mode : Weakmem.mode;
  fence_policy : Heap.fence_policy;
  trace : bool;
  trace_ring : int;
}

let config ?(heap_mb = 64.0) ?(ncpus = 4) ?(seed = 1) ?(gc = Config.default)
    ?(wm_mode = Weakmem.Sc) ?(fence_policy = Heap.Batched) ?(trace = false)
    ?(trace_ring = 65536) () =
  { heap_mb; ncpus; seed; gc; wm_mode; fence_policy; trace; trace_ring }

type t = {
  cfg : config;
  sc : Sched.t;
  hp : Heap.t;
  coll : Collector.t;
  gen : Gen.t option;  (* the nursery, in [Config.Gen] mode *)
  rng : Prng.t;
  mutable mutators : Mutator.t list;
  mutable txs : int;
  mutable ran_ms : float;
  mutable prof : Sampler.t option;
  mutable reset_hooks : (unit -> unit) list;
}

let create cfg =
  let sc = Sched.create ~ncpus:cfg.ncpus () in
  let rng = Prng.create cfg.seed in
  let wm = Weakmem.create ~mode:cfg.wm_mode ~rng:(Prng.split rng) () in
  let clock = Sched.clock sc in
  let obs =
    if cfg.trace then Obs.create ~ring_capacity:cfg.trace_ring clock
    else Obs.null
  in
  let mach = Machine.create ~wm ~obs ~clock ~relinquish:Sched.yield () in
  (* In [Sc] mode the store buffers are always empty and [commit_due] is a
     no-op, so don't pay an indirect call per scheduler iteration for
     it. *)
  (match Weakmem.mode wm with
  | Sc -> ()
  | Relaxed -> Sched.on_advance sc (fun now -> Weakmem.commit_due wm ~now));
  (* This VM's own fault injector, armed from the config's scenarios and
     seed: its windows are keyed on this VM's clock and its events go to
     this VM's sink.  The config's injector is only a template, so VMs
     built from one config — a fleet's shards, on any domain — share no
     injector state. *)
  let gc =
    { cfg.gc with
      Config.faults = Fault.arm cfg.gc.Config.faults ~clock ~obs }
  in
  let nslots = int_of_float (cfg.heap_mb *. 1024.0 *. 1024.0 /. 8.0) in
  let hp = Heap.create ~fence_policy:cfg.fence_policy mach ~nslots in
  let coll = Collector.create gc ~sched:sc ~heap:hp in
  let gen =
    match cfg.gc.Config.mode with
    | Config.Stw | Config.Cgc -> None
    | Config.Gen ->
        let slots =
          int_of_float (float_of_int nslots *. Gen.nursery_fraction)
        in
        Some (Gen.create coll ~nursery_slots:slots)
  in
  { cfg; sc; hp; coll; gen; rng; mutators = []; txs = 0; ran_ms = 0.0;
    prof = None; reset_hooks = [] }

let sched t = t.sc
let collector t = t.coll
let gen t = t.gen
let heap t = t.hp
let machine t = Heap.machine t.hp
let gc_stats t = Collector.stats t.coll
let the_config t = t.cfg

(* Root-array ("stack") slots per mutator. *)
let stack_slots = 48

let spawn_mutator t ~name body =
  let mrng = Prng.split t.rng in
  ignore
    (Sched.spawn t.sc ~name ~prio:Sched.Normal (fun () ->
         let thread = Sched.current t.sc in
         let mctx = Collector.register_mutator t.coll thread ~stack_slots in
         let m =
           Mutator.make ~vm_sched:t.sc ~coll:t.coll ~mctx ~rng:mrng
             ~on_tx:(fun () -> t.txs <- t.txs + 1)
         in
         t.mutators <- m :: t.mutators;
         body m))

let run t ~ms =
  Collector.start_background t.coll;
  let cost = (machine t).Machine.cost in
  let until = Sched.now t.sc + Cost.cycles_of_ms cost ms in
  Sched.run t.sc ~until;
  t.ran_ms <- t.ran_ms +. ms

let reset_stats t =
  Gstats.reset (gc_stats t);
  let mach = machine t in
  Fence.reset mach.Machine.fences;
  mach.Machine.cas_ops <- 0;
  Pool.reset_watermarks (Collector.pool t.coll);
  Obs.clear mach.Machine.obs;
  Option.iter Sampler.clear t.prof;
  t.txs <- 0;
  t.ran_ms <- 0.0;
  List.iter (fun f -> f ()) (List.rev t.reset_hooks)

let on_reset t f = t.reset_hooks <- f :: t.reset_hooks

let run_measured t ~warmup_ms ~ms =
  run t ~ms:warmup_ms;
  reset_stats t;
  run t ~ms

let now_ms t = Cost.ms_of_cycles (machine t).Machine.cost (Sched.now t.sc)

let total_transactions t = t.txs

let throughput t =
  if t.ran_ms <= 0.0 then 0.0
  else float_of_int t.txs /. (t.ran_ms /. 1000.0)

let obs t = (machine t).Machine.obs

let cycles_per_us t =
  float_of_int (machine t).Machine.cost.Cost.cycles_per_ms /. 1000.0

(* ------------------------------------------------------------------ *)
(* Online profiler                                                     *)

let profiler t = t.prof

(* Sampling period: every 0.25 simulated ms. *)
let profiler_interval_ms = 0.25

let enable_profiler t =
  match t.prof with
  | Some _ -> ()  (* idempotent: keep the existing sampler and probes *)
  | None ->
      let cost = (machine t).Machine.cost in
      let interval =
        max 1
          (int_of_float
             (profiler_interval_ms *. float_of_int cost.Cost.cycles_per_ms))
      in
      let p = Sampler.create ~interval () in
      let fi = float_of_int in
      let count_threads prio states () =
        let n = ref 0 in
        Sched.iter_threads t.sc (fun th ->
            if
              Sched.thread_prio th = prio
              && List.mem (Sched.thread_state th) states
            then incr n);
        fi !n
      in
      let probe name fn = Sampler.add_probe p ~name fn in
      probe "mutators-running"
        (count_threads Sched.Normal [ Sched.Runnable; Sched.Running ]);
      probe "mutators-sleeping" (count_threads Sched.Normal [ Sched.Sleeping ]);
      probe "bg-tracers-running"
        (count_threads Sched.Low [ Sched.Runnable; Sched.Running ]);
      probe "world-stopped" (fun () ->
          if Sched.world_stopped t.sc then 1.0 else 0.0);
      let pl = Collector.pool t.coll in
      probe "pool-empty" (fun () -> fi (Pool.occupancy pl).Pool.occ_empty);
      probe "pool-nonempty" (fun () -> fi (Pool.occupancy pl).Pool.occ_nonempty);
      probe "pool-almost-full" (fun () ->
          fi (Pool.occupancy pl).Pool.occ_almost_full);
      probe "pool-deferred" (fun () -> fi (Pool.occupancy pl).Pool.occ_deferred);
      probe "pool-in-use" (fun () -> fi (Pool.occupancy pl).Pool.occ_in_use);
      probe "pool-entries" (fun () -> fi (Pool.occupancy pl).Pool.occ_entries);
      (* The dirty count is an incrementally-maintained counter (O(1)),
         so it can be sampled at the same rate as the other probes. *)
      probe "cards-dirty" (fun () ->
          fi (Card_table.dirty_count (Heap.cards t.hp)));
      probe "heap-free-slots" (fun () -> fi (Heap.free_slots t.hp));
      probe "marked-slots" (fun () ->
          fi (Tracer.marked_slots (Collector.tracer t.coll)));
      probe "gc-phase" (fun () ->
          match Collector.phase t.coll with
          | Collector.Idle -> 0.0
          | Collector.Marking -> 1.0
          | Collector.Finalizing -> 2.0);
      (match t.gen with
      | None -> ()
      | Some g ->
          probe "nursery-occupancy" (fun () -> Gen.nursery_used g);
          probe "promotion-rate" (fun () -> Gen.promotion_rate g));
      Sched.on_advance_due t.sc (fun now ->
          Sampler.tick p ~now;
          Sampler.due p);
      t.prof <- Some p

let trace_json t = Export.chrome_obs ~cycles_per_us:(cycles_per_us t) (obs t)
let write_trace t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Export.output_chrome_obs oc ~cycles_per_us:(cycles_per_us t) (obs t))

let cycles_schema = "cgcsim-cycles-v1"

let metrics_csv t =
  Export.csv ~schema:cycles_schema ~header:Gstats.csv_header
    (Gstats.csv_rows (gc_stats t))

let write_metrics t path = Export.write_file path (metrics_csv t)

let print_report t =
  let st = gc_stats t in
  let mach = machine t in
  let p label h =
    Printf.printf
      "  %-24s avg %8.2f ms   p50 %8.2f   p90 %8.2f   p99 %8.2f   max %8.2f   (n=%d)\n"
      label (Histogram.mean h)
      (Histogram.percentile h 50.0)
      (Histogram.percentile h 90.0)
      (Histogram.percentile h 99.0)
      (if Histogram.count h = 0 then 0.0 else Histogram.max h)
      (Histogram.count h)
  in
  Printf.printf "=== VM report (%.0f MB heap, %d cpus, %s) ===\n" t.cfg.heap_mb
    t.cfg.ncpus
    (match t.cfg.gc.Config.mode with
    | Config.Cgc -> "CGC"
    | Config.Stw -> "STW"
    | Config.Gen -> "GEN");
  Printf.printf "simulated time: %.1f ms; transactions: %d (%.1f tx/s)\n"
    (now_ms t) t.txs (throughput t);
  Printf.printf "GC cycles: %d (%d finished concurrently, %d halted by allocation failure)\n"
    st.Gstats.cycles st.Gstats.premature_cycles st.Gstats.halted_cycles;
  p "pause" st.Gstats.pause_ms;
  p "  mark component" st.Gstats.mark_ms;
  p "  sweep component" st.Gstats.sweep_ms;
  (match t.gen with
  | None -> ()
  | Some g ->
      Printf.printf
        "minor GCs: %d (%d deferred to old space during marking); promoted \
         %d slots (%.1f KB); survival %.1f%%\n"
        st.Gstats.minors st.Gstats.minor_deferred st.Gstats.promoted_slots
        (float_of_int st.Gstats.promoted_slots *. 8.0 /. 1024.0)
        (100.0 *. Gen.promotion_rate g);
      p "minor pause" st.Gstats.minor_pause_ms);
  Printf.printf "  avg occupancy after GC: %.1f%%\n"
    (100.0 *. Stats.mean st.Gstats.occupancy_end);
  Printf.printf "  cards cleaned: concurrent avg %.0f, stop-the-world avg %.0f\n"
    (Stats.mean st.Gstats.conc_cards)
    (Stats.mean st.Gstats.stw_cards);
  Printf.printf "  mutator utilization during concurrent phase: %.0f%%\n"
    (100.0 *. Gstats.utilization st);
  Printf.printf "  traced slots/cycle: concurrent avg %.0f, stop-the-world avg %.0f\n"
    (Stats.mean st.Gstats.traced_conc_slots)
    (Stats.mean st.Gstats.traced_stw_slots);
  let f = mach.Machine.fences in
  Printf.printf "fences: total %d (alloc-batch %d, packet %d, defer %d, card %d)\n"
    (Fence.total f) (Fence.get f Fence.Alloc_batch)
    (Fence.get f Fence.Packet_return) (Fence.get f Fence.Packet_defer)
    (Fence.get f Fence.Card_snapshot);
  let pl = Collector.pool t.coll in
  Printf.printf "packets: high-water %d of %d in use, %d entries; CAS ops %d\n"
    (Pool.max_in_use pl) (Pool.total pl) (Pool.max_entries pl)
    mach.Machine.cas_ops;
  Printf.printf
    "robustness: overflow events %d, deferred-packet high-water %d\n"
    st.Gstats.overflow_events st.Gstats.max_deferred_packets;
  if
    st.Gstats.degrade_force_finish + st.Gstats.degrade_full_stw
    + st.Gstats.degrade_compact + st.Gstats.oom_raised > 0
  then
    Printf.printf
      "degradation ladder: force-finish %d, full-STW %d, emergency \
       compaction %d, out-of-memory %d\n"
      st.Gstats.degrade_force_finish st.Gstats.degrade_full_stw
      st.Gstats.degrade_compact st.Gstats.oom_raised;
  let faults = (Collector.config t.coll).Config.faults in
  if Fault.enabled faults then begin
    Printf.printf "fault injection (seed %d):" (Fault.seed faults);
    List.iter
      (fun (s, n) ->
        if n > 0 then Printf.printf " %s=%d" (Fault.to_name s) n)
      (Fault.injections faults);
    Printf.printf " (total %d)\n" (Fault.total_injections faults)
  end;
  if Obs.enabled mach.Machine.obs then begin
    Printf.printf "trace: %d events emitted, %d dropped by ring overflow\n"
      (Obs.emitted mach.Machine.obs)
      (Obs.dropped mach.Machine.obs);
    match Obs.dropped_by_thread mach.Machine.obs with
    | [] -> ()
    | per_tid ->
        Printf.printf
          "WARNING: ring overflow truncated the trace; lossy rings:";
        List.iter (fun (tid, n) -> Printf.printf " tid%d=%d" tid n) per_tid;
        Printf.printf
          "\n  (raise the ring capacity — --trace-ring — or shorten the \
           traced window)\n"
  end;
  match t.prof with
  | None -> ()
  | Some p ->
      Printf.printf "profiler: %d sampling ticks every %.2f ms\n"
        (Sampler.ticks p)
        (float_of_int (Sampler.interval p)
        /. float_of_int mach.Machine.cost.Cost.cycles_per_ms);
      List.iter
        (fun s ->
          Printf.printf "  %-20s n=%-6d mean %10.1f  min %10.1f  max %10.1f\n"
            (Series.name s) (Series.count s) (Series.mean s) (Series.min s)
            (Series.max s))
        (Sampler.series p)

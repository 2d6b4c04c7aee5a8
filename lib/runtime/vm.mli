(** The virtual-machine facade: the public entry point of the library.

    A [Vm.t] bundles a simulated multiprocessor, a heap, and a collector
    (either the paper's CGC or the stop-the-world baseline).  Mutator
    threads are spawned with {!spawn_mutator} and interact with the heap
    exclusively through the {!Mutator} API; {!run} drives the simulation
    for a given number of simulated milliseconds.

    {[
      let vm = Vm.create (Vm.config ~heap_mb:64.0 ~ncpus:4 ()) in
      Vm.spawn_mutator vm ~name:"worker" (fun m ->
          while not (Mutator.stopped m) do
            let obj = Mutator.alloc m ~nrefs:1 ~size:8 in
            Mutator.root_set m 0 obj;
            Mutator.work m 5_000;
            Mutator.tx_done m
          done);
      Vm.run vm ~ms:1_000.0;
      Vm.print_report vm
    ]} *)

type t

type config = {
  heap_mb : float;  (** simulated heap size in megabytes *)
  ncpus : int;
  seed : int;
  gc : Cgc_core.Config.t;
  wm_mode : Cgc_smp.Weakmem.mode;
  fence_policy : Cgc_heap.Heap.fence_policy;
      (** [Batched] (the paper's protocols) or [Naive] (one fence per
          object / per mark) for the fence-batching ablation *)
  trace : bool;
      (** arm the {!Cgc_obs} event sink; off by default because tracing,
          while cheap, is not free *)
  trace_ring : int;
      (** per-thread event-ring capacity; long traced runs need more
          than the default 65536 to avoid overflow drops *)
}

val config :
  ?heap_mb:float ->
  ?ncpus:int ->
  ?seed:int ->
  ?gc:Cgc_core.Config.t ->
  ?wm_mode:Cgc_smp.Weakmem.mode ->
  ?fence_policy:Cgc_heap.Heap.fence_policy ->
  ?trace:bool ->
  ?trace_ring:int ->
  unit ->
  config
(** Defaults: 64 MB heap, 4 CPUs, seed 1, CGC with paper parameters,
    sequentially-consistent memory (fence costs still charged), tracing
    off, 65536-event rings.  Every VM gives each mutator 48 root-array
    ("stack") slots and runs {!Cgc_sim.Sched.create}'s default quantum. *)

val create : config -> t
(** The VM arms its own fault injector from [gc.faults]
    ({!Cgc_fault.Fault.arm}), held by [Collector.config (collector t)];
    VMs built from one config share no state. *)

val sched : t -> Cgc_sim.Sched.t
val collector : t -> Cgc_core.Collector.t

val gen : t -> Cgc_gen.Gen.t option
(** The generational front end — [Some] exactly when the VM was created
    with [Config.Gen] mode (nursery carved, hooks installed). *)

val heap : t -> Cgc_heap.Heap.t
val machine : t -> Cgc_smp.Machine.t
val gc_stats : t -> Cgc_core.Gstats.t
val the_config : t -> config

val spawn_mutator : t -> name:string -> (Mutator.t -> unit) -> unit
(** Create a mutator thread.  The body receives its {!Mutator.t} handle
    once the thread starts executing inside the simulation. *)

val run : t -> ms:float -> unit
(** Start the background GC threads and run the simulation for [ms]
    simulated milliseconds (or until every thread finishes). *)

val run_measured : t -> warmup_ms:float -> ms:float -> unit
(** Run for [warmup_ms], discard all statistics gathered so far (GC
    stats, fence and CAS counters, packet watermarks, transaction
    counts), then run for [ms] more.  This is how the experiments skip
    the cycles during which the metering estimators are still
    converging. *)

val reset_stats : t -> unit

val on_reset : t -> (unit -> unit) -> unit
(** Register a hook run (in registration order) at the end of every
    {!reset_stats} — lets subsystems layered on the VM (e.g.
    [cgc_server]) discard their warm-up statistics in the same sweep. *)

val now_ms : t -> float

val total_transactions : t -> int
(** Sum of {!Mutator.tx_done} counts across all mutators. *)

val throughput : t -> float
(** Transactions per simulated second over the whole run. *)

val print_report : t -> unit
(** Human-readable summary of pauses (avg / p50 / p90 / p99 / max, from
    the {!Cgc_core.Gstats} histograms), components, throughput and
    fence / packet statistics. *)

(** {2 Observability} *)

val obs : t -> Cgc_obs.Obs.t
(** The event sink ({!Cgc_obs.Obs.null} unless [config ~trace:true]). *)

val cycles_per_us : t -> float
(** Simulated cycles per microsecond — the rate trace timestamps are
    exported at, and the one {!Cgc_prof.Analysis.analyse} needs. *)

val trace_json : t -> string
(** The recorded events as Chrome [trace_event] JSON — open the file in
    [chrome://tracing] or Perfetto.  Deterministic: equal-seed runs
    produce byte-identical output.  Empty event list when tracing is
    off. *)

val write_trace : t -> string -> unit
(** [write_trace t path] writes {!trace_json} to [path]. *)

val cycles_schema : string
(** The [#schema=] tag on per-cycle CSV dumps: ["cgcsim-cycles-v1"]. *)

val write_metrics : t -> string -> unit
(** [write_metrics t path] writes the per-GC-cycle metrics (pause,
    mark, sweep and compact ms, cards, traced slots, occupancy) to [path]
    as CSV, one row per cycle, tagged with the {!cycles_schema} line. *)

(** {2 Online profiler} *)

val enable_profiler : t -> unit
(** Install the {!Cgc_prof.Sampler} on this VM (idempotent).  Every
    0.25 ms of simulated time, host-side probes snapshot scheduler
    occupancy (running / sleeping mutators, background tracers,
    world-stopped), packet-pool occupancy by list, card-table dirty
    count, heap free slots, marked slots and the collector phase —
    charging no simulated cycles.  Call before {!run}; {!reset_stats}
    clears the collected series along with everything else. *)

val profiler : t -> Cgc_prof.Sampler.t option
(** The sampler installed by {!enable_profiler}, if any. *)

(** Aggregate collector statistics — everything the paper's evaluation
    section measures.

    Pause components follow the paper's breakdown: the {e mark} component
    of a stop-the-world pause covers final card cleaning, stack rescanning
    and mark completion; the {e sweep} component is the parallel bitwise
    sweep.  The metering criteria of Table 2 (CC Rate, premature-GC Free
    Space, Cards Left) are recorded per cycle.

    Since the observability rework, the four latency aggregates
    ([pause_ms], [mark_ms], [sweep_ms], [compact_ms]) are bounded
    log-scale {!Cgc_util.Histogram}s — the VM report derives its
    p50/p90/p99/max pause figures from them — and each completed GC cycle
    additionally appends one {!cycle_row} to an in-order log, which is
    what the [--metrics-out] CSV exporter serialises.  Everything is fed
    at cycle finalisation through {!note_cycle}; the remaining fields are
    unchanged {!Cgc_util.Stats} sample sets and plain counters. *)

module Stats = Cgc_util.Stats
module Histogram = Cgc_util.Histogram

type cycle_row = {
  cycle : int;  (** 1-based GC cycle number *)
  end_ms : float;  (** simulated time when the cycle's pause ended *)
  pause_ms : float;  (** full stop-the-world pause *)
  mark_ms : float;  (** mark component of the pause *)
  sweep_ms : float;  (** sweep component of the pause *)
  compact_ms : float;  (** evacuation + fix-up component of the pause *)
  conc_cards : int;  (** cards cleaned concurrently this cycle *)
  stw_cards : int;  (** cards cleaned inside the pause *)
  traced_conc : int;  (** slots traced concurrently *)
  traced_stw : int;  (** slots traced inside the pause *)
  evac_slots : int;  (** slots evacuated (0 without compaction) *)
  occupancy : float;  (** heap occupancy fraction after the cycle *)
  degrade_force_finish : int;
      (** cumulative force-finish ladder rungs climbed by cycle end *)
  degrade_full_stw : int;  (** cumulative full-STW ladder rungs *)
  degrade_compact : int;  (** cumulative emergency-compaction rungs *)
}
(** One completed GC cycle, as the per-cycle metrics CSV reports it. *)

type t = {
  pause_ms : Histogram.t;  (** full stop-the-world pauses *)
  mark_ms : Histogram.t;  (** mark component of each pause *)
  sweep_ms : Histogram.t;  (** sweep component of each pause *)
  compact_ms : Histogram.t;  (** evacuation + fix-up component of each pause *)
  stw_cards : Stats.t;  (** cards cleaned in the stop-the-world phase *)
  conc_cards : Stats.t;  (** cards cleaned concurrently *)
  cc_ratio : Stats.t;  (** stw cards / concurrent cards, per cycle *)
  occupancy_end : Stats.t;  (** heap occupancy fraction after each cycle *)
  premature_free : Stats.t;  (** free fraction when tracing finished early *)
  cards_left : Stats.t;  (** registered cards left when halted by alloc failure *)
  tracing_factor : Stats.t;  (** actual/assigned per mutator increment *)
  fairness : Stats.t;  (** per-cycle stddev of tracing factors *)
  cas_per_mb : Stats.t;  (** CAS ops per cycle, normalised by live MB *)
  traced_conc_slots : Stats.t;  (** slots traced concurrently per cycle *)
  traced_stw_slots : Stats.t;  (** slots traced inside the pause per cycle *)
  mutable cycle_log : cycle_row list;  (** newest first *)
  mutable cycles : int;
  mutable premature_cycles : int;  (** concurrent phase finished all work *)
  mutable halted_cycles : int;  (** concurrent phase halted by alloc failure *)
  mutable overflow_events : int;
  mutable max_deferred_packets : int;
      (** high-water mark of the section 5.2 Deferred sub-pool *)
  (* Degradation-ladder accounting (robustness): each counter is one rung
     of the allocation-failure escalation in [Collector], climbed in
     order before a typed [Out_of_memory] is raised. *)
  mutable degrade_force_finish : int;
      (** rung 1: in-flight cycle force-finished (or degenerate full
          collection when no cycle was running) *)
  mutable degrade_full_stw : int;
      (** rung 2: fresh full stop-the-world collection *)
  mutable degrade_compact : int;
      (** rung 3: emergency compacting full collection *)
  mutable oom_raised : int;
      (** allocations that exhausted the ladder and raised *)
  (* Mutator-utilization accounting (Table 3) *)
  mutable preconc_slots : int;  (** slots allocated between cycles *)
  mutable preconc_time : int;  (** cycles of pre-concurrent wall time *)
  mutable conc_slots : int;  (** slots allocated during concurrent phases *)
  mutable conc_time : int;  (** cycles of concurrent-phase wall time *)
  mutable total_alloc_slots : int;
  (* Generational front end (Gen mode).  The per-cycle CSV schema
     (cgcsim-cycles-v1) is unchanged: minors are not major cycles, so
     they aggregate here and surface through the run report and the
     trace analyzer instead. *)
  minor_pause_ms : Histogram.t;
      (** per-minor pause of the allocating mutator (the only thread a
          minor collection stops) *)
  mutable minors : int;  (** minor collections run *)
  mutable promoted_slots : int;  (** slots copied into the old space *)
  mutable minor_deferred : int;
      (** nursery exhaustions that fell back to old-space allocation
          because a concurrent major phase was in flight *)
}

val create : unit -> t

val reset : t -> unit
(** Zero everything — used to discard warm-up cycles before measuring. *)

val note_cycle : t -> cycle_row -> unit
(** Record one finished GC cycle: appends the row to the cycle log and
    feeds the four latency histograms.  The collector calls this exactly
    once per cycle, after the world restarts. *)

val csv_header : string list
(** Column names of the per-cycle metrics CSV, aligned with
    {!csv_rows}. *)

val csv_rows : t -> string list list
(** The per-cycle log, oldest first, rendered for
    {!Cgc_obs.Export.csv}: fixed-precision decimal formatting, so
    equal-seed runs serialise identically. *)

val utilization : t -> float
(** Concurrent-phase allocation rate over pre-concurrent allocation rate
    (the paper's mutator-utilization proxy); 0 if unmeasurable. *)

val alloc_rate_preconc : t -> cost:Cgc_smp.Cost.t -> float
(** KB per millisecond of allocation between cycles. *)

val alloc_rate_conc : t -> cost:Cgc_smp.Cost.t -> float
(** KB per millisecond of allocation during concurrent phases. *)

(** Derived metrics from a trace: the offline half of the profiler.

    Everything here is computed from an {!Cgc_obs.Event.t} list alone —
    either the live sink of a run that just finished or a Chrome-trace
    file re-parsed by {!Cgc_obs.Export.parse_chrome_json}.  That is the
    point: the paper's headline tables (minimum mutator utilization,
    Table 4's tracing-factor load balance, pause distributions) become
    reproducible from a trace artefact without re-running the workload.

    The load-balance block is defined to coincide with what the collector
    accumulates into {!Cgc_core.Gstats} online: [factor_mean] matches
    [Stats.mean Gstats.tracing_factor] and [fairness] matches
    [Stats.mean Gstats.fairness] (the per-cycle population stddev of
    tracing factors, over cycles with at least two samples), up to the
    1e-6 fixed-point quantisation of the [Incr_factor] event payload and
    float summation order.  This equivalence is asserted by the test
    suite. *)

type tracer = {
  tid : int;
  increments : int;  (** mutator tracing increments performed *)
  busy_ms : float;  (** time inside those increments *)
  slots : int;  (** slots traced by those increments *)
  bg_chunks : int;  (** background tracing chunks (background threads) *)
  bg_slots : int;  (** slots traced by background chunks *)
  gets : int;
  puts : int;
  steals : int;
  defers : int;  (** work-packet traffic attributed to this thread *)
}

type balance = {
  tracers : tracer list;  (** per-thread rows, ascending thread id *)
  busy_mean_ms : float;
  busy_stddev_ms : float;
  busy_cv : float;  (** stddev/mean of per-mutator tracing time *)
  slots_mean : float;
  slots_stddev : float;
  slots_cv : float;  (** same, of per-mutator traced slots *)
  factor_mean : float;  (** mean tracing factor, as Gstats measures it *)
  factor_stddev : float;
  factor_count : int;  (** tracing-factor samples in the trace *)
  fairness : float;  (** mean per-cycle stddev of tracing factors *)
  fairness_cycles : int;  (** cycles contributing a fairness sample *)
}

type pauses = {
  pause_count : int;
  pause_mean_ms : float;
  pause_p50_ms : float;
  pause_p90_ms : float;
  pause_p99_ms : float;
  pause_max_ms : float;
}

type gen_stats = {
  minor_count : int;  (** minor (nursery) collections in the trace *)
  minor_mean_ms : float;
  minor_p50_ms : float;
  minor_p90_ms : float;
  minor_p99_ms : float;
  minor_max_ms : float;
      (** minor-pause distribution, from [Minor_done] span durations —
          each pause stops only the allocating mutator, so these sit in
          a different column than the world-stopping [pauses] above *)
  promoted_slots : int;  (** total slots promoted to the old space *)
}
(** Generational decomposition ([Config.Gen] runs).  All zero when the
    trace contains no minor collections. *)

type phase_row = {
  code : Cgc_obs.Event.code;
  count : int;
  total_ms : float;  (** summed span duration; 0 for instant events *)
}

type mmu_point = {
  window_ms : float;
  mmu : float;  (** minimum mutator utilization over all windows *)
  avg_util : float;
  n_windows : int;
}

type t = {
  wall_ms : float;  (** first event to last event end *)
  n_events : int;
  n_mutators : int;  (** distinct threads that ran tracing increments *)
  n_cycles : int;  (** completed GC cycles in the trace *)
  phases : phase_row list;  (** per-event-code attribution, catalogue order *)
  balance : balance;
  pauses : pauses;  (** stop-the-world (major) pause distribution *)
  gen : gen_stats;  (** minor-pause / promotion decomposition (Gen mode) *)
  mmu : mmu_point list;  (** one point per requested window size *)
}

val analyse :
  ?mmu_windows_ms:float list ->
  cycles_per_us:float ->
  Cgc_obs.Event.t list ->
  t
(** Compute every derived metric over an event list (which must be in
    the stable order {!Cgc_obs.Obs.events} produces).  [cycles_per_us]
    converts cycle timestamps to wall time — pass the recording VM's
    rate, or the one recovered from a parsed trace header.

    Mutator utilization of a window is
    [1 - stw_overlap/w - increment_overlap/(w * n_mutators)], clamped to
    [\[0,1\]]: stop-the-world time robs every mutator, a tracing
    increment robs only the mutator running it. *)

val analyse_events :
  ?mmu_windows_ms:float list ->
  cycles_per_us:float ->
  Cgc_obs.Event.t array ->
  t
(** {!analyse} over the flat array {!Cgc_obs.Obs.events_array} produces.
    Identical results (every pass walks the same order); several times
    faster on large traces, so the hot report/bench paths use this
    form. *)

val utilization_timeline :
  cycles_per_us:float ->
  window_ms:float ->
  Cgc_obs.Event.t list ->
  (float * float) list
(** [(window_start_ms, utilization)] per window, for plotting a
    utilization timeline at one window size.  The trailing partial
    window (if any) is normalised by its actual length. *)

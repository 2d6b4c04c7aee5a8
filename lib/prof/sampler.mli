(** The online sampler: periodic snapshots of live simulator state.

    Unlike the event sink — which records what the collector {e does} —
    the sampler records what the system {e looks like} at a fixed cadence:
    how many mutators are runnable, how full the packet pool is, how many
    cards are dirty.  The VM wires {!tick} into the scheduler's
    [on_advance_due] hook, so sampling happens host-side between simulated
    instructions and charges no simulated cycles.  It is due at
    {!due}: a tick before then does nothing.

    Samples are taken at multiples of the sampling interval regardless
    of when the clock actually advances past a deadline, so two
    equal-seed runs sample at the same boundaries even if their event
    timing differs at sub-interval granularity (it does not, but the
    alignment also makes series from different runs directly
    comparable). *)

type t

val create : interval:int -> unit -> t
(** [interval] is the sampling period in simulated cycles.  Each probe
    keeps a {!Series} of its samples' lifetime aggregates. *)

val interval : t -> int

val add_probe : t -> name:string -> (unit -> float) -> unit
(** Register a named probe, sampled at every tick. *)

val tick : t -> now:int -> unit
(** Advance to simulated time [now]; takes at most one sample, at the
    latest interval boundary [<= now] not yet sampled.  Intended as a
    {!Cgc_sim.Sched.on_advance_due} hook due at {!due}. *)

val due : t -> int
(** The earliest time at which {!tick} takes its next sample; {!tick}
    at any earlier time does nothing. *)

val ticks : t -> int
(** Sampling points taken so far. *)

val series : t -> Series.t list
(** All probe series, in probe-registration order. *)

val find : t -> string -> Series.t option

val clear : t -> unit
(** Reset every series and the tick counter (used by
    [Vm.reset_stats] when a measured run discards its warmup). *)

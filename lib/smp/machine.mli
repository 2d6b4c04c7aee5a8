(** Shared machine context threaded through the heap and the collector.

    Bundles the cycle {!Cost} model, the {!Weakmem} system, fence and CAS
    accounting, and the VM's {!Cgc_util.Clock}: the scheduler advances
    it, and the machine reads the simulated time and the running thread
    (whose id names its store buffer) from it and charges cycles to it.
    Sharing the record rather than the scheduler keeps the heap and
    collector libraries independent of the scheduler, and lets unit
    tests drive them with {!Cgc_util.Clock.manual}. *)

type t = {
  cost : Cost.t;
  wm : Weakmem.t;
  fences : Fence.counters;
  obs : Cgc_obs.Obs.t;
      (** event sink for the observability layer; {!Cgc_obs.Obs.null}
          (every emit is a no-op) unless the run was started with tracing
          armed *)
  mutable cas_ops : int;
  mutable debt : int;    (** cycles charged but not yet spent *)
  clock : Cgc_util.Clock.t;
      (** the running slice: simulated time, and the running thread,
          whose id is its store-buffer id *)
  relinquish : unit -> unit;
      (** yield the current simulated thread's processor (no-op outside a
          scheduler, e.g. in unit tests) *)
}

val create :
  ?obs:Cgc_obs.Obs.t ->
  wm:Weakmem.t ->
  clock:Cgc_util.Clock.t ->
  ?relinquish:(unit -> unit) ->
  unit ->
  t
(** A machine charging {!Cost.default}'s cycle costs. *)

val testing : ?mode:Weakmem.mode -> ?seed:int -> unit -> t
(** A machine for unit tests: a {!Cgc_util.Clock.manual} clock (starts
    at 0, advanced by {!flush}, never preempts), running as store buffer
    0, default costs.  Set [clock.tid] to play another processor. *)

val fence : t -> Fence.site -> unit
(** Count a fence at [site], charge its cost, and drain the calling
    thread's store buffer. *)

val cas : t -> unit
(** Count and charge one compare-and-swap. *)

val charge : t -> int -> unit
(** Accumulate cycles into the debt counter.  Debt is only turned into
    simulated time by {!flush}; the stretch of host code between two
    flushes is therefore atomic with respect to simulated preemption.
    The collector flushes at {e safe points} only — between object scans,
    between cards, between allocation slow paths — which is what makes it
    sound to confiscate the work-packet sessions of preempted threads
    when the world stops (a session is never mid-object at a flush). *)

val flush : t -> unit
(** Spend the accumulated debt on the current simulated thread
    ({!Cgc_util.Clock.spend}). *)

val now : t -> int
(** The clock's time; pending debt is not included. *)

val cpu : t -> int
(** The running thread's store-buffer id.  Raises [Invalid_argument]
    when no thread is running. *)

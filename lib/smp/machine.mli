(** Shared machine context threaded through the heap and the collector.

    Bundles the cycle {!Cost} model, the {!Weakmem} system, fence and CAS
    accounting, and three environment closures wired up by the runtime:
    the simulated clock, a way to charge cycles to the currently running
    simulated thread, and the identity of the store buffer (thread) the
    caller is executing on.  Keeping these as closures lets the heap and
    collector libraries stay independent of the scheduler, and lets unit
    tests drive them with a hand-rolled clock. *)

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
  now : unit -> int;
  spend : int -> unit;   (** consume simulated cycles on the current thread *)
  cpu : unit -> int;     (** store-buffer id of the current thread *)
  relinquish : unit -> unit;
      (** yield the current simulated thread's processor (no-op outside a
          scheduler, e.g. in unit tests) *)
}

val create :
  ?obs:Cgc_obs.Obs.t ->
  wm:Weakmem.t ->
  now:(unit -> int) ->
  spend:(int -> unit) ->
  cpu:(unit -> int) ->
  ?relinquish:(unit -> unit) ->
  unit ->
  t
(** A machine charging {!Cost.default}'s cycle costs. *)

val testing : ?mode:Weakmem.mode -> ?seed:int -> unit -> t
(** A machine for unit tests: manual clock (starts at 0, advanced by
    [charge]), single store buffer 0, default costs. *)

val testing_multi : ?mode:Weakmem.mode -> ?seed:int -> unit -> t * int ref * int ref
(** Like {!testing} but returns the clock cell and a mutable "current cpu"
    cell so a test can play several processors. *)

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
(** Spend the accumulated debt on the current simulated thread. *)

val now : t -> int
val cpu : t -> int

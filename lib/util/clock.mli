(** The running simulated thread's view of time, one per VM.

    The scheduler ([Cgc_sim.Sched]) owns and advances it; the machine,
    the event sink and the fault injector, which sit below the
    scheduler, read it.  A slice starts at [base], and every cycle the
    running thread spends adds to [used]: the paper charges incremental
    tracing to the allocating thread's own CPU time (§ 3). *)

type t = {
  mutable base : int;  (** simulated time the current slice started at *)
  mutable used : int;  (** cycles spent since [base] *)
  mutable tid : int;   (** id of the running thread; [-1] when none runs *)
  quantum : int;       (** {!spend} preempts once [used] reaches this *)
}

type _ Effect.t +=
  | Preempt : unit Effect.t
        (** Performed by {!spend} when the slice is used up; the
            scheduler's handler suspends the thread. *)

val manual : unit -> t
(** A clock for unit tests: time 0, thread 0 running, and a quantum
    that is never reached, so {!spend} only advances time.  Set [tid]
    to play another processor. *)

val now : t -> int
(** [base + used]. *)

val spend : t -> int -> unit
(** Charge cycles to the running thread, performing {!Preempt} if that
    uses up the slice.  Raises [Invalid_argument] when no thread is
    running and the charge is positive. *)

val tid : t -> int
(** The running thread's id.  Raises [Invalid_argument] when none
    runs. *)

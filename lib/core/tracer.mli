(** The parallel tracing engine over work packets.

    Every tracing participant — a mutator doing its allocation-linked
    increment, a low-priority background thread, or a stop-the-world
    worker — opens a {!session} holding an input and an output packet
    obtained from the shared pool (input acquired first, as the
    termination protocol of section 4.3 requires).  Objects are marked
    with a test-and-set on the mark bit when pushed, so each is traced
    once.

    Section 5.2 is implemented at input-packet acquisition: the entries'
    allocation bits are tested, unsafe entries (bit not visible yet) are
    parked in the Deferred sub-pool, a fence is executed, and only safe
    entries are traced.

    A session belongs to a simulated thread that can be preempted while
    holding packets.  When the world must stop, the collector
    {!confiscate_all} sessions: their packets return to the pool (so
    termination detection stays sound) and the sessions are poisoned so
    the owning thread abandons its trace loop at the next safe point. *)

type t

type session

val create : Config.t -> Cgc_heap.Heap.t -> Cgc_packets.Pool.t -> t

val set_compactor : t -> Compact.t -> unit
(** Attach the incremental compactor: every scan then records references
    into the evacuation area, and conservative root scanning pins area
    objects (section 2.3). *)

val new_session : t -> session

val release : t -> session -> unit
(** Return both packets to the pool (output first, fenced if non-empty)
    and unregister the session.  Idempotent; no-op on a stolen session. *)

val stolen : session -> bool

val confiscate_all : t -> unit
(** Steal every live session's packets back into the pool. *)

val push_root : t -> session -> int -> bool
(** Conservatively validate a potential root (heap range, allocation bit,
    header sanity) and, if it is a valid unmarked object, mark and push
    it.  Returns whether it was pushed.  Charges the per-slot stack-scan
    cost. *)

val push_obj : t -> session -> int -> unit
(** Mark-and-push a known object address (no conservative filtering).
    Handles output replacement, input/output swapping, and the overflow
    fallback (mark + dirty the object's card) of section 4.3. *)

val scan_object : t -> session -> retrace:bool -> int -> int
(** Scan the object's reference slots, pushing unmarked children; returns
    the object's size in slots.  [retrace] marks a card-cleaning rescan
    (not counted as first-time mark volume). *)

val acquire_input : ?tries:int -> t -> Cgc_packets.Packet.t option
(** Take an input packet from the pool through the section 5.2 filter:
    unsafe entries are parked in the Deferred sub-pool and the packet
    returned holds only safe ones; an emptied packet goes back and
    another is tried, up to [tries] (default 3) times.  {!trace_until}
    acquires its input this way; exposed for the filter's tests. *)

val trace_until : t -> session -> budget:int -> int
(** Pop and scan objects until [budget] slots have been traced or no
    input work can be acquired.  Returns slots traced.  Flushes charge
    debt between objects (the preemption safe points). *)

val scan_roots : t -> session -> int array -> int
(** Conservative scan of a root array; returns the number of roots
    pushed. *)

val marked_slots : t -> int
(** Total volume (slots) of objects scanned for the first time this
    cycle — the observation for the L estimator. *)

val retraced_slots : t -> int
(** Volume rescanned by card cleaning this cycle (for the M estimator
    and the progress formula's T together with {!marked_slots}). *)

val overflow_events : t -> int
val corruptions : t -> int
(** Invalid headers / out-of-range references encountered while tracing —
    zero whenever the section 5 protocols are enabled. *)

val reset_cycle : t -> unit

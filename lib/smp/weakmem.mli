(** Simulated weak-ordering memory system.

    The paper targets PowerPC / IA-64 class machines where stores issued
    by one processor become visible to others in no particular order
    unless a fence is executed.  This module models exactly that: every
    protocol-relevant store (heap slots, allocation bits, card-table
    bytes, work-packet contents and pool heads) is applied to the shared
    state immediately but remains {e masked} for other processors until a
    randomized drain deadline passes or the issuing processor fences.
    While masked, readers on other processors observe the pre-store value,
    so store-store reordering anomalies — the three races of section 5 —
    actually manifest.

    Per-location coherence is preserved, matching real weak-ordering
    hardware: a store's drain deadline is bumped past every earlier
    deadline handed out for its location, so deadlines strictly increase
    per location in issue order.  The state is therefore one list of
    pending stores per location, and every drain makes a {e prefix} of
    it (the oldest stores) visible: a natural drain at [now] the stores
    with deadline [<= now], a fence by processor [c] every store up to
    and including [c]'s newest one there, whichever processor issued
    them.  Once a newer store to a location is visible, no read returns
    a value from before it.

    In [Sc] (sequentially consistent) mode every operation is a direct
    memory access; the experiments run in this mode for speed, with fence
    {e costs} still charged via {!Fence} and {!Cost}.  The [Relaxed] mode
    is used by the correctness tests that demonstrate the section 5
    protocols are necessary and sufficient. *)

type mode = Sc | Relaxed

type t

val create : ?max_delay:int -> mode:mode -> rng:Cgc_util.Prng.t -> unit -> t
(** [max_delay] (default 5000 cycles) bounds how long a store may stay
    buffered before draining on its own. *)

val mode : t -> mode

val register : t -> int -> int
(** [register t n] reserves a fresh key range of size [n] for one shared
    structure and returns its base key.  Location identity is
    [base + offset]. *)

val store : t -> cpu:int -> now:int -> key:int -> prev:int -> unit
(** Record that processor [cpu] overwrote location [key] at time [now];
    [prev] is the value the location held before the store (what remote
    readers will see until the store drains).  The caller must have
    already applied the new value to the backing structure. *)

val read : t -> cpu:int -> now:int -> key:int -> current:int -> int
(** The value processor [cpu] observes for [key] at [now], where
    [current] is the value currently in the backing structure. *)

val fence : t -> cpu:int -> now:int -> unit
(** Drain all pending stores issued by [cpu]: they become globally
    visible, and with each its location's older pending stores, by any
    processor.  (Cost accounting is the caller's job.) *)

val fence_all : t -> unit
(** Drain every pending store on every processor — used when the collector
    forces all mutators to fence (section 5.3, step 2). *)

val commit_due : t -> now:int -> unit
(** Drain stores whose deadline has passed.  Called by the scheduler. *)

val pending_count : t -> int
(** Number of still-masked stores (diagnostics / tests). *)

(** The card table.

    One dirty indicator per 512-byte card, set by the write barrier
    without any fence (section 5.3); on the host each card's committed
    state is one bit.  Cleaning uses the paper's snapshot protocol:
    {!snapshot} scans the table, registers the dirty cards elsewhere and
    clears their indicators (step 1); the collector then forces every
    mutator to fence (step 2, the caller's job); the registered cards are
    then scanned (step 3).  Dirty-indicator stores and reads go through
    the weak-memory system so the section 5.3 race is demonstrable. *)

type t

val create : Cgc_smp.Machine.t -> ncards:int -> t

val ncards : t -> int

val dirty : t -> int -> unit
(** Mark card dirty (the write-barrier store; no fence). *)

val is_dirty : t -> int -> bool

val clear : t -> int -> unit

val clear_all : t -> unit
(** Direct reset at collection-cycle initialisation. *)

val dirty_count : t -> int
(** Number of dirty cards, as committed memory.  O(1): the table keeps
    an incremental counter of its dirty bits, updated on every committed
    dirty/clean transition, so the profiler can sample this every tick
    without rescanning the table. *)

val recount : t -> int
(** O(ncards) population count of the committed dirty bits — the
    reference the incremental {!dirty_count} is checked against by
    [Cgc_core.Verify]. *)

val snapshot : t -> int list
(** Step 1 of the cleaning protocol: atomically-per-card register and
    clear each dirty card, returning the registered card indices in
    ascending order.  Charges the per-card probe cost for the full table
    scan (the simulated cost is unchanged by the host-side word-scan
    fast path).  Cards dirtied by stores that are still sitting unfenced
    in a mutator's store buffer are {e not} seen — exactly the race the
    protocol's step 2 exists to close. *)

(** The generational front end: a bump-allocated nursery and minor
    collections layered over the concurrent major collector.

    The nursery is a card-aligned region carved off the top of the arena
    at startup ({!Cgc_heap.Heap.reserve_top}); everything below it is the
    {e old space}, owned by the free-list allocator and the concurrent
    major collector.  Mutators bump-allocate small objects out of nursery
    chunks (their ordinary allocation caches, pointed at nursery extents
    through the collector's refill hook).  When the nursery is exhausted,
    the allocating mutator — and {e only} that mutator — runs a minor
    collection: it scans every mutator's root array (conservatively,
    with the tracer's own filter), the precise global table, and the
    old→young remembered set, evacuates the survivors into the old space
    by copying, and resets the nursery.  Promotion is {e everything
    survives one minor} (promote-all): objects either die in the nursery
    or leave it on their first collection — with one exception.  A young
    object referenced from a root array is {e pinned}: a suspended
    mutator mirrors its live locals in its root array (the discipline
    [Compact] already relies on), and a local cannot be rewritten, so a
    root-reachable young object must not move.  Pinned survivors stay at
    their address (the nursery carver steps over them), are rescanned by
    every minor while pinned, and are evacuated by the first minor that
    no longer finds them in any root.  An old-space object left holding
    a reference to a pinned survivor keeps its remembered-set card
    dirty, so the edge is re-examined by the next minor.

    The remembered set is a second {!Cgc_heap.Card_table} over the same
    geometry: the [Gen]-mode write barrier dirties the {e parent's} card
    in it whenever an old-space object stores a young reference.  Only
    minor collections snapshot and clear this table — the major
    collector's card passes never touch it.

    Two rules keep the two collectors composable:
    {ul
    {- {e Minors run only while the major collector is Idle.}  A nursery
       exhaustion during a concurrent marking phase falls back to
       old-space allocation instead (counted as [minor_deferred]) — so a
       minor never has to reason about mark bits, work packets or
       tracing termination.}
    {- {e The major collector never crosses the nursery boundary.}
       Sweep and emergency compaction stop at [Collector.old_limit];
       nursery reclamation belongs to minors alone.}}

    The whole minor runs host-atomically inside the allocating mutator's
    slow path and is billed to that mutator as one flush — the pause
    stops one thread, not the world. *)

type t

val nursery_fraction : float
(** Fraction of the arena carved off as the nursery (1/8).  The old
    space shrinks by the same amount, so heap budgets stay comparable
    across the [--gc] axis. *)

val create : Cgc_core.Collector.t -> nursery_slots:int -> t
(** Carve the nursery off the top of the collector's (pristine) heap,
    create the young remembered-set card table, and install the barrier
    and refill hooks via {!Cgc_core.Collector.install_gen}.  The
    collector must have been created in [Config.Gen] mode and nothing
    may have been allocated yet. *)

(** {2 Probes and report feeds} *)

val n_lo : t -> int
(** First nursery slot (= the old-space limit). *)

val n_hi : t -> int
(** One past the last nursery slot (= [Heap.nslots]). *)

val nursery_used : t -> float
(** Fraction of the nursery currently carved out into allocation chunks
    (the profiler's nursery-occupancy probe). *)

val promotion_rate : t -> float
(** Exponentially-smoothed survivor fraction (slots promoted or pinned
    over slots in use at the trigger) across minors — the profiler's
    promotion-rate probe.  [0.] until the first minor. *)

val pinned_slots : t -> int
(** Slots pinned in place by the most recent minor collection. *)

val young : t -> Cgc_heap.Card_table.t
(** The old→young remembered-set card table (diagnostics and tests). *)

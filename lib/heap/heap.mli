(** The complete heap substrate: arena + free list + mark bits +
    allocation bits + card table + per-thread allocation caches.

    This mirrors the IBM JVM heap organisation the paper builds on:
    {ul
    {- a mark bit vector, one bit per 8-byte slot;}
    {- an allocation bit vector at the same granularity, used both for
       conservative stack scanning and for the batched object-publication
       fence protocol (section 5.2);}
    {- a card table with 512-byte cards for the write barrier;}
    {- cache allocation: each thread carves small objects out of a private
       allocation cache and takes the slow path — where all incremental GC
       work happens — only when the cache is exhausted.}}

    The heap does not know about the collector; the collector drives it
    through this interface. *)

type t

type fence_policy = Batched | Naive

type cache
(** A per-thread allocation cache (thread-local heap). *)

val create :
  ?fence_policy:fence_policy -> Cgc_smp.Machine.t -> nslots:int -> t
(** [fence_policy] defaults to [Batched] (the paper's protocol); [Naive]
    fences once per object for the ablation study. *)

val machine : t -> Cgc_smp.Machine.t
val fence_policy_of : t -> fence_policy
val arena : t -> Arena.t
val cards : t -> Card_table.t
val alloc_bits : t -> Alloc_bits.t
val mark_bits : t -> Cgc_util.Bitvec.t
val freelist : t -> Freelist.t
val nslots : t -> int

(** {2 Marking} *)

val mark_test_and_set : t -> int -> bool
(** Set the mark bit for the object at the address; true iff this call
    marked it (the caller "won" and must trace it). *)

val is_marked : t -> int -> bool
val clear_marks : t -> unit

(** {2 Allocation} *)

val new_cache : unit -> cache
(** An empty cache; the first allocation through it takes the slow path. *)

val cache_alloc :
  t -> cache -> size:int -> nrefs:int -> mark_new:bool -> int option
(** Bump-allocate from the cache.  [None] means the cache is exhausted and
    the caller must {!refill_cache} (after doing its incremental GC work).
    Writes the header, nulls the reference slots, and if [mark_new]
    (allocate-black during an active collection cycle) sets the mark bit.
    The allocation bit is {e not} set yet — it is published in a batch
    when the cache is retired. *)

val no_addr : int
(** Sentinel returned by {!cache_alloc_addr} on cache exhaustion ([-1],
    never a valid slot address). *)

val cache_alloc_addr :
  t -> cache -> size:int -> nrefs:int -> mark_new:bool -> int
(** Allocation-free {!cache_alloc}: the address, or {!no_addr} when the
    cache is exhausted.  The mutator allocation fast path runs millions
    of times per cell, so the [Some] box per object was measurable. *)

val refill_cache : t -> cache -> min:int -> pref:int -> bool
(** Retire the current cache (publish allocation bits behind one fence)
    and install a fresh extent of at least [min] and preferably [pref]
    slots.  False when the free list cannot satisfy [min]: time to
    collect. *)

val retire_cache : t -> cache -> unit
(** Publish and drop the cache without refilling (done to every mutator
    when the world stops, so all objects become "safe" for tracing). *)

val alloc_large : t -> size:int -> nrefs:int -> mark_new:bool -> int option
(** Allocate a large object straight from the free list; publishes its
    allocation bit immediately behind its own fence. *)

(** {2 Nursery support (Gen mode)} *)

val reserve_top : t -> slots:int -> int
(** Carve [slots] (card-aligned, rounded down) off the top of the arena
    and withdraw them from the free list, returning the first nursery
    slot.  Must be called on a pristine heap (before any allocation);
    afterwards the free-list allocator only ever hands out old-space
    extents below the returned boundary. *)

val install_cache : t -> cache -> base:int -> limit:int -> unit
(** Point a cache at an externally-carved extent [[base, limit)] (a
    nursery chunk).  Publishes any pending allocation bits first and
    counts the extent into {!cumulative_alloc_slots}, exactly like
    {!refill_cache} does for free-list extents. *)

val cache_extent : cache -> int * int * int
(** [(base, cur, limit)] of the cache — lets the nursery verifier check
    the bump pointer stays inside the nursery bounds. *)

val alloc_raw : t -> size:int -> int option
(** Carve [size] slots straight off the free list without writing a
    header or touching any bit vector — the promotion path copies a
    fully-formed object (header included) over the extent and publishes
    its allocation bit itself.  Charges allocation cost and counts into
    {!cumulative_alloc_slots}. *)

(** {2 Occupancy} *)

val free_slots : t -> int
(** Slots available on the free list right now. *)

val cumulative_alloc_slots : t -> int
(** Total slots ever handed to caches or large objects (monotonic). *)

val object_overlapping : t -> int -> int option
(** [object_overlapping t slot] finds the address of the allocated object
    whose extent covers [slot], if any — used by card cleaning for objects
    spanning a card boundary.  Uses committed allocation-bit state. *)

val iter_objects_on_card : t -> int -> (int -> unit) -> unit
(** [iter_objects_on_card t card f] applies [f] to the address of every
    allocated object overlapping the card (including one that starts
    before it). *)

val iter_marked_on_card : t -> int -> (int -> unit) -> unit
(** Same, but iterating the {e marked} objects via the mark bit vector —
    card cleaning retraces exactly "the marked objects on the cards
    marked dirty" (section 2.1). *)

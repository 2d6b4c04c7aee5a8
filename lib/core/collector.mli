(** The collector itself: the paper's parallel, incremental, mostly
    concurrent mark-sweep garbage collector, plus the parallel
    stop-the-world baseline it is compared against.

    Life of a CGC collection cycle (sections 2 and 3):
    {ol
    {- {e Kickoff}: a mutator's allocation slow path notices free space has
       dropped below [(L+M)/K0] and initialises a cycle — mark bits and
       card table cleared, background threads start soaking idle cycles.}
    {- {e Concurrent phase}: each allocation slow path performs an
       increment of tracing work metered by the progress formula; the
       first increment per thread scans that thread's own stack.  Work is
       distributed through the work-packet pool.  When packets run dry a
       card-cleaning pass starts (deferred as long as possible, each card
       cleaned at most once per pass), then unscanned stacks of
       non-allocating threads are taken, then deferred packets recycled.}
    {- {e Stop-the-world phase}: triggered by concurrent-tracing
       termination (detected via the Empty sub-pool counter) or by
       allocation failure.  All caches are retired (publishing allocation
       bits), dirty cards are cleaned under the snapshot protocol, all
       stacks are rescanned, marking completes and the heap is swept —
       all fully parallel across up to four threads.}}

    In [Stw] mode the collector is the baseline: no write barrier, no
    concurrent phase; allocation failure triggers a full parallel
    stop-the-world mark-sweep. *)

type t

type phase = Idle | Marking | Finalizing
(** The collector's phase as the layers above see it.  Inside, the
    collector keeps one state with two more values, both read here as
    [Idle]: [Sweeping], while a lazy sweep (section 7) still feeds the
    free list after a cycle, and [Starting], while the thread that
    claimed a cycle start finishes that sweep before marking begins.
    docs/ARCHITECTURE.md lists the state edges. *)

type oom_diag = {
  oom_phase : phase;  (** phase when the failing request was made *)
  oom_request : int;  (** slots requested *)
  oom_cycle : int;  (** GC cycle count at the time of the raise *)
  oom_free : int;  (** free slots after the last-resort collection *)
  oom_live : int;  (** live-volume estimate, slots *)
  oom_nslots : int;  (** heap size, slots *)
  oom_pool : int * int * int * int;
      (** work-packet sub-pool counters (empty, nonempty, almost-full,
          deferred) *)
  oom_rungs : int;  (** degradation-ladder rungs climbed before raising *)
}
(** Diagnostic payload of {!Out_of_memory}: enough state to tell a
    genuinely oversubscribed heap from a collector defect. *)

exception Out_of_memory of oom_diag
(** Raised only after the full degradation ladder — force-finish of the
    in-flight cycle, a fresh full stop-the-world collection, and an
    emergency compacting collection — has failed to free enough space.
    A printer is registered with {!Printexc}, so uncaught it still
    renders as {!oom_to_string}. *)

val oom_to_string : oom_diag -> string

val cache_slots : int
(** Preferred allocation-cache size, in slots (2 KB).  The generational
    front end carves nursery chunks of the same size. *)

val create : Config.t -> sched:Cgc_sim.Sched.t -> heap:Cgc_heap.Heap.t -> t
(** @raise Invalid_argument when {!Config.validate} rejects the
    configuration. *)

val config : t -> Config.t
val heap : t -> Cgc_heap.Heap.t
val stats : t -> Gstats.t
val tracer : t -> Tracer.t
val pool : t -> Cgc_packets.Pool.t
val cleaner : t -> Card_clean.t
val compactor : t -> Compact.t
val phase : t -> phase

val register_mutator : t -> Cgc_sim.Sched.thread -> stack_slots:int -> Mctx.t
(** Must be called from inside the thread being registered (the mutator's
    store-buffer identity is its scheduler thread id). *)

val start_background : t -> unit
(** Spawn the [n_background] low-priority tracing threads. *)

val alloc : t -> Mctx.t -> nrefs:int -> size:int -> int
(** Allocate an object of [size] slots with [nrefs] leading reference
    slots (all null).  Performs the incremental GC work mandated by the
    progress formula on slow paths; may stop the world.  On exhaustion it
    climbs the degradation ladder (force-finish, full stop-the-world
    collection, emergency compaction — each rung counted in {!Gstats}).
    @raise Out_of_memory when the ladder too cannot free enough space. *)

val set_ref : t -> parent:int -> idx:int -> value:int -> unit
(** Store a reference through the write barrier (store, then dirty the
    parent's card; no fence — section 5.3). *)

val get_ref : t -> parent:int -> idx:int -> int

val global_set : t -> int -> int -> unit
(** Store into the global-roots table.  Globals are rescanned during
    every stop-the-world phase, so no card is needed. *)

val global_get : t -> int -> int

val n_globals : int

val force_collect : t -> unit
(** Run a full collection now (from inside a simulated thread). *)

(** {2 Generational front end (Gen mode)}

    The nursery itself lives above this library (in [cgc_gen]); the
    collector exposes the integration points: the old-space boundary
    (sweep and emergency compaction must not cross it), a barrier hook
    called on every [Gen]-mode store after the major's card dirtying,
    and a cache-refill hook consulted on the allocation slow path before
    the old-space free list. *)

val install_gen :
  t ->
  old_limit:int ->
  barrier:(parent:int -> value:int -> unit) ->
  refill:(Mctx.t -> min:int -> bool) ->
  unit
(** Wire the generational front end in.  Must be called before any
    allocation; raises [Invalid_argument] unless the collector was
    created in [Gen] mode. *)

val old_limit : t -> int
(** First slot past the old space ([Heap.nslots] except in Gen mode). *)

val mutators : t -> Mctx.t list
(** Every registered mutator — the minor collector scans all root arrays
    and republishes all allocation caches. *)

val globals_array : t -> int array
(** The global-roots table itself (precise; the minor collector rewrites
    young entries in place). *)

val alloc_old : t -> size:int -> int
(** Raw old-space slots for a promoted survivor: no header is written
    and no bits are touched — the minor collector copies the complete
    object over the extent and publishes the allocation bit itself.
    Climbs the degradation ladder on exhaustion.
    @raise Out_of_memory when even the ladder cannot free the space. *)

val checkpoint : t -> unit
(** Spend any accumulated cycle debt (call between transactions). *)

val check_reachable : t -> (int * int) list
(** Host-side heap-integrity walk: follow every reference reachable from
    the mutator roots and globals and return the (referrer, address)
    pairs that no longer look like valid objects.  Empty on a sound
    heap.  The tests' reference walker; runs under [--verify] use
    {!Verify.check}, which checks a superset. *)

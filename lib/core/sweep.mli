(** Bitwise sweep — parallel (in-pause) and lazy (section 7) variants.

    Bitwise sweep frees memory in time essentially proportional to the
    number of live objects by finding runs of unmarked slots in the mark
    bit vector.  The parallel variant splits the heap into one region per
    stop-the-world worker; each worker scans its region independently and
    a cheap serial merge stitches the boundary runs together and rebuilds
    the free list.

    The lazy variant implements the paper's future-work proposal: the
    pause ends right after marking, the free list starts empty, and
    mutators (or background threads) sweep incrementally from a cursor
    whenever the free list cannot satisfy an allocation. *)

type region
(** Per-worker sweep result: interior free gaps, the first marked address,
    the end of the last live object, and the live volume. *)

val sweep_region : Cgc_heap.Heap.t -> lo:int -> hi:int -> region
(** Scan one region of the mark bit vector.  Charges scan cost; safe to
    run from parallel worker threads. *)

val gaps : region -> (int * int) list
(** The region's interior free gaps as [(addr, len)], ascending: the runs
    between consecutive live objects. *)

val live : region -> int
(** Slots of the live objects whose heads lie in the region. *)

val merge : ?limit:int -> Cgc_heap.Heap.t -> region array -> int
(** Clear the free list, install all free runs (clearing their allocation
    bits), and return the total live slots.  Regions must be given in
    ascending address order and cover the swept space exactly.  [limit]
    (default [Heap.nslots]) bounds the final tail run — [Gen] mode sweeps
    only the old space, and the nursery above [limit] must never reach
    the free list. *)

val regions : nslots:int -> workers:int -> (int * int) array
(** Split [1, nslots) into [workers] balanced [(lo, hi)] regions. *)

(** {2 Lazy sweep} *)

type lazy_t

val lazy_begin : Cgc_heap.Heap.t -> lazy_t
(** Clear the free list and start a sweep cursor at the bottom of the
    heap.  Call right after marking completes. *)

val lazy_step : Cgc_heap.Heap.t -> lazy_t -> max_slots:int -> bool
(** Sweep the next [max_slots] of address space, feeding the free list.
    Returns false if the sweep had already finished. *)

val lazy_finished : lazy_t -> bool

val lazy_pos : lazy_t -> int
(** Current sweep-cursor position (slots below it have been swept). *)

val lazy_live : lazy_t -> int
(** Live slots found so far (complete once the sweep finishes). *)

val lazy_finish : Cgc_heap.Heap.t -> lazy_t -> unit
(** Drive the sweep to completion (used when a new cycle must start while
    a lazy sweep is still in progress, since the new cycle clears the mark
    bits the sweep reads). *)

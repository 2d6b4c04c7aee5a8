(** Allocation-free FIFO ring deque over a preallocated array.

    Elements live in a flat array indexed by a head cursor and a length,
    so {!push_back}/{!pop_front} are a handful of loads and stores and
    allocate nothing; the array doubles only when full.  The weak-memory
    store buffers use it; the scheduler's runqueues are int rings of
    their own.

    A [dummy] element is supplied at creation, and the deque never
    retains a reference to an element it no longer contains: every
    vacated slot is overwritten with the dummy as soon as its element
    leaves, and array growth fills fresh slots with the dummy.
    {!slots_clean} checks that invariant. *)

type 'a t

val create : ?capacity:int -> 'a -> 'a t
(** [create ?capacity dummy] — an empty deque.  [capacity] (default 16)
    is the initial array size; the deque grows as needed.
    [Invalid_argument] unless [capacity > 0]. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push_back : 'a t -> 'a -> unit
(** Append at the tail; O(1) amortised, allocation-free until the array
    must double. *)

val pop_front : 'a t -> 'a
(** Remove and return the head element, clearing its slot to the dummy.
    [Invalid_argument] on an empty deque. *)

val front : 'a t -> 'a
(** The head element without removing it.  [Invalid_argument] on an
    empty deque. *)

val back : 'a t -> 'a
(** The tail element (the most recently pushed).  [Invalid_argument] on
    an empty deque. *)

val slots_clean : 'a t -> bool
(** [true] iff every array slot not currently occupied by an element is
    physically equal to the dummy — the no-retention invariant. *)

(** Allocation-free FIFO ring deque over a preallocated array.

    The event core dispatches millions of times per host second, and the
    previous [Queue]-based runqueues allocated one list cell per push —
    enough to dominate the scheduler's hot path with minor-GC work.  This
    deque stores elements in a flat array indexed by a head cursor and a
    length, so {!push_back}/{!pop_front} are a handful of loads and
    stores and allocate nothing (the array doubles only when full).
    The weak-memory store buffers use it; the scheduler's runqueues are
    int rings of their own.

    A [dummy] element is supplied at creation and used for two hygiene
    guarantees that the heap-retention bugfixes of PR 9 established:
    every vacated slot is overwritten with the dummy as soon as its
    element leaves the deque, and array growth fills fresh slots with
    the dummy — so the deque never retains a reference to an element it
    no longer contains.  {!slots_clean} checks that invariant (it is the
    hook the QCheck properties and regression tests use). *)

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

val get : 'a t -> int -> 'a
(** [get t i] — the element at logical position [i] (0 = front).
    [Invalid_argument] unless [0 <= i < length t]. *)

val front : 'a t -> 'a
(** The head element without removing it.  [Invalid_argument] on an
    empty deque. *)

val back : 'a t -> 'a
(** The tail element (the most recently pushed).  [Invalid_argument] on
    an empty deque. *)

val iter : 'a t -> ('a -> unit) -> unit
(** Front to back. *)

val fold : 'a t -> init:'b -> f:('b -> 'a -> 'b) -> 'b
(** Front to back. *)

val clear : 'a t -> unit
(** Empty the deque, overwriting every occupied slot with the dummy. *)

val slots_clean : 'a t -> bool
(** [true] iff every array slot not currently occupied by an element is
    physically equal to the dummy — the no-retention invariant. *)

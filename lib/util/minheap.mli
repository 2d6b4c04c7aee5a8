(** Array-backed binary min-heap, functorized over an integer key.

    It is the weak-memory store buffer's drain queue (entries keyed by
    deadline); the scheduler's sleep queue is {!Intheap}, which makes
    the same comparisons over int pairs.  Pop order is part of every
    trace: sifting up moves an element past a strictly greater parent,
    and sifting down swaps an element with the smallest of itself and
    its two children, a tie going to the first of parent, left child and
    right child.

    Slot hygiene: the heap never retains an element it no longer holds.
    Every slot at or above [length] holds the dummy, both after a [pop]
    and in the fresh half of a grown array.  [pop] and [top] on an empty
    heap raise [Invalid_argument]. *)

module type ORDERED = sig
  type elt

  val key : elt -> int
  (** Must not change while the element is in a heap. *)

  val dummy : elt
  (** Fills empty slots; never returned by a guarded operation. *)
end

module Make (O : ORDERED) : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] (default 32) is the initial array size. *)

  val length : t -> int
  val is_empty : t -> bool

  val push : t -> O.elt -> unit

  val top : t -> O.elt
  (** The minimum-key element without removing it.  [Invalid_argument]
      on an empty heap. *)

  val min_key : t -> int
  (** [O.key (top t)], or [max_int] when empty — an allocation-free
      peek. *)

  val pop : t -> O.elt
  (** Remove and return the minimum-key element, clearing the vacated
      slot to the dummy.  [Invalid_argument] on an empty heap. *)

  val slots_clean : t -> bool
  (** [true] iff every slot at or above [length t] is physically the
      dummy: the no-retention invariant. *)
end

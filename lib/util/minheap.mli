(** Array-backed binary min-heap, functorized over an integer key.

    It is the weak-memory store buffer's drain queue (entries keyed by
    deadline); the scheduler's sleep queue is {!Intheap}, which makes
    the same comparisons over int pairs.  The sift loops are
    byte-for-byte the comparison sequences the two hand-rolled heaps of
    PR 0 used, so pop order — and therefore every trace — is unchanged.

    What {e is} new is slot hygiene, fixing two retention bugs the
    originals shared:
    - [pop] used to leave a live reference to the removed element in
      [a.(n)] after decrementing, retaining dead threads and committed
      store entries for the life of the run; vacated slots are now
      cleared to the dummy.
    - [push]'s grow path used to fill the doubled array with [a.(0)] — a
      live element — instead of the dummy.

    [pop]/[top] on an empty heap now raise [Invalid_argument] instead of
    silently returning the dummy (or a stale slot) as the unguarded
    [a.(0)] read used to. *)

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
      dummy — the no-retention invariant the PR 9 bugfixes enforce. *)
end

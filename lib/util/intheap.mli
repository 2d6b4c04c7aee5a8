(** Array-backed binary min-heap of [(key, value)] pairs of ints, held in
    two int arrays.

    The scheduler's sleep queue keys thread ids by wake time, and the
    weak-memory store buffers key locations by drain deadline.  No push,
    pop or sift stores a pointer, so none of them goes through the OCaml
    5 write barrier.  Equal keys pop in an order fixed by the sift loops
    (strict [>] going up, strict [<] going down, left child before
    right); every simulated trace depends on it. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 32) is the initial array size. *)

val length : t -> int
val is_empty : t -> bool

val push : t -> key:int -> int -> unit

val min_key : t -> int
(** The smallest key, or [max_int] when empty. *)

val second_key : t -> int
(** The key {!pop} would leave as {!min_key}: the second-smallest key
    (equal to [min_key] when two keys tie), or [max_int] when fewer than
    two pairs are queued. *)

val top : t -> int
(** The value under the smallest key, without removing it.
    [Invalid_argument] on an empty heap. *)

val pop : t -> int
(** Remove the smallest-key pair and return its value.
    [Invalid_argument] on an empty heap. *)

val exists : t -> (int -> bool) -> bool
(** [true] iff some queued value satisfies the predicate.  O(length);
    for test hooks, not the hot path. *)

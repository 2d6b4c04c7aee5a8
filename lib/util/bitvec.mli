(** Dense bit vectors with run-finding primitives.

    The collector keeps three per-heap bit vectors at one bit per 8-byte
    slot, exactly as in the paper: the {e mark bit vector} (live objects),
    the {e allocation bit vector} (valid object starts, also the basis of
    the batched-fence protocol of section 5.2) and, indirectly, the card
    table.  Bitwise sweep walks the mark bit vector looking for runs of
    clear bits, so this module exposes fast next-set/next-clear scans.

    The bits are held in zero-filled [Bytes], which the host GC never
    scans: bit [i] is bit [i land 7] of byte [i lsr 3], so on a
    little-endian host it is bit [i land 63] of the 64-bit word
    [i lsr 6].  Single-bit operations are a byte shift and mask; the
    scans go a word at a time. *)

type t

val create : int -> t
(** [create n] is an all-clear vector of [n] bits. *)

val get : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit

val test_and_set : t -> int -> bool
(** [test_and_set t i] sets bit [i] and returns [true] iff it was
    previously clear (i.e. the caller "won").  This is the mark-bit
    idiom used to avoid pushing an object twice. *)

val clear_all : t -> unit

val set_range : t -> int -> int -> unit
(** [set_range t pos len] sets [len] bits starting at [pos]. *)

val clear_range : t -> int -> int -> unit

val next_set : t -> int -> int
(** [next_set t i] is the index of the first set bit at or after [i], or
    the vector's length if none. *)

val next_set_below : t -> int -> int -> int
(** [next_set_below t i hi] is the index of the first set bit in
    [\[i, hi)], or [hi] if none, with [hi] clamped to the vector's
    length.  It never reads a word past the one holding bit [hi - 1], so
    a scan of a short window costs the window, not the distance to the
    next set bit beyond it. *)

val next_clear : t -> int -> int
(** First clear bit at or after [i], or the vector's length. *)

val prev_set : t -> int -> int
(** [prev_set t i] is the index of the last set bit at or before [i], or
    [-1] if none.  Used by card cleaning to find the object spanning a
    card boundary. *)

val count : t -> int
(** Population count of the whole vector. *)

(** {2 Word-level kernels}

    The hot paths of the simulator (bitwise sweep, card snapshot, the
    profiler's dirty-card probe) operate on whole 64-bit words rather
    than individual bits; these entry points expose that granularity. *)

val fold_set_ranges : t -> lo:int -> hi:int -> init:'a -> f:('a -> int -> int -> 'a) -> 'a
(** [fold_set_ranges t ~lo ~hi ~init ~f] folds [f acc pos len] over the
    maximal runs of {e set} bits intersected with [\[lo, hi)], in
    ascending position order.  Runs are found by word-skipping scans
    ({!next_set} / {!next_clear}), so the cost is proportional to the
    number of words plus the number of runs, not the number of bits.
    This is the kernel under bitwise sweep's gap enumeration and the
    card-table snapshot. *)

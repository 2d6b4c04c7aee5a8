(** The allocation bit vector — one bit per 8-byte slot, set at the first
    slot of every valid object.

    It serves two roles from the paper: validating slot values during the
    conservative stack scan, and the batched-fence publication protocol
    of section 5.2 — a mutator sets the bits for a whole retired
    allocation cache {e after} one fence, so a concurrent tracer that sees
    the bit set is guaranteed to see the object's initialised contents.
    Bit accesses therefore go through the weak-memory system. *)

type t

val create : Cgc_smp.Machine.t -> nslots:int -> t

val set : t -> int -> unit
val clear : t -> int -> unit

val is_set : t -> int -> bool
(** As observed by the calling thread (weak-memory aware). *)

val is_set_sc : t -> int -> bool
(** Committed value, bypassing store-buffer masking (tests / sweep). *)

val clear_range : t -> int -> int -> unit
(** Used by sweep when reclaiming a free run. *)

val prev_set : t -> int -> int
(** Committed-state scan backwards for the nearest object start at or
    before the given slot; used by card cleaning to find the object
    spanning a card boundary.  [-1] if none. *)

val next_set : t -> int -> int
(** Committed-state scan forward; [nslots] if none. *)

val next_set_below : t -> int -> int -> int
(** [next_set_below t i hi]: committed-state scan forward over [[i, hi)]
    only; [hi] (clamped to [nslots]) if none. *)

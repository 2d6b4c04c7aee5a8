(** Deterministic pseudo-random number generator (SplitMix64).

    Every source of randomness in the simulator flows through a [Prng.t]
    seeded by the experiment configuration, so that any run is reproducible
    bit-for-bit.  SplitMix64 is used because it is trivially splittable:
    each simulated thread can own an independent stream derived from the
    root seed without coordination. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] derives an independent generator, advancing [t]. *)

val next : t -> int64
(** [next t] returns the next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool
(** A fair coin flip. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential distribution with the given
    mean; used for think times and object lifetimes. *)

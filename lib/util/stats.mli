(** Streaming descriptive statistics over an exact sample vector.

    Used throughout the experiment harness for tracing factors,
    allocation rates, occupancy, etc.  Keeps {e all} samples, so maxima
    and percentiles are exact but memory grows with the run; for
    long-lived aggregates where bounded memory matters (the collector's
    own pause/mark/sweep times in [Cgc_core.Gstats]) use the
    fixed-bucket {!Histogram} instead. *)

type t

val create : unit -> t
(** An empty accumulator. *)

val add : t -> float -> unit
(** Record one sample. *)

val count : t -> int
(** Samples recorded so far. *)

val sum : t -> float

val mean : t -> float
(** 0 when empty. *)

val stddev : t -> float
(** Population standard deviation; 0 when fewer than two samples. *)

val min : t -> float
(** +inf when empty. *)

val max : t -> float
(** -inf when empty. *)

val nearest_rank : n:int -> float -> int
(** The single percentile rank rule shared by the whole tree (both this
    module and {!Histogram} use it): [nearest_rank ~n p] is
    [ceil (p /. 100. *. n)] clamped to [\[1, n\]], a 1-based rank into
    the sorted sample vector.  [p <= 0.] selects the minimum, [p >= 100.]
    the maximum, and every query lands on an actual sample — no
    interpolation.  Raises [Invalid_argument] when [n <= 0]. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [0,100]: the sample at {!nearest_rank}
    in the sorted sample vector (NaN samples sort first, via
    [Float.compare]).  0 when empty. *)

val samples : t -> float array
(** A copy of the samples in insertion order. *)

val clear : t -> unit

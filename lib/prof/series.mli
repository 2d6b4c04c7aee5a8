(** A probe's samples, kept as lifetime aggregates.

    The online sampler ({!Sampler}) adds one value per probe per
    sampling tick.  Only [count]/[min]/[max]/[mean] over every value
    added are kept, so a series is a few words however long the run. *)

type t

val create : name:string -> unit -> t

val name : t -> string

val add : t -> float -> unit
(** Fold one sample into the aggregates. *)

val count : t -> int
(** Samples added. *)

val min : t -> float
(** Smallest value added; [0.0] when empty. *)

val max : t -> float
(** Largest value added; [0.0] when empty. *)

val mean : t -> float
(** Mean over every value added; [0.0] when empty. *)

val clear : t -> unit
(** Forget every sample. *)

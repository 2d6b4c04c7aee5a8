(** Section 6.3: work-packet memory watermarks on SPECjbb.  Returns the
    one CGC record. *)

val run : unit -> Common.metrics list

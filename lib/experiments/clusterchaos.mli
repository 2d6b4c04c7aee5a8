(** Fleet chaos scenarios crossed with routing policies.  Collects no
    per-VM records, so it returns []. *)

val run : unit -> Common.metrics list

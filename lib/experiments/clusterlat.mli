(** Cluster routing policies at equal fleet load.  Collects no
    per-VM records, so it returns []. *)

val run : unit -> Common.metrics list

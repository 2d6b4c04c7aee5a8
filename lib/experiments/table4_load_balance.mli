(** Table 4: work-packet load balancing on pBOB as the thread count
    grows.  Returns one record per thread count. *)

val run : unit -> Common.metrics list

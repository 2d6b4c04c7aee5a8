(** Tables 1, 2 and 3 from one sweep: SPECjbb under STW and under CGC
    at several tracing rates.  Prints all three tables and returns the
    STW record followed by one record per tracing rate. *)

val run : unit -> Common.metrics list

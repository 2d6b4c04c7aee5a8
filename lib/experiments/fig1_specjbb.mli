(** Figure 1: SPECjbb from 1 to 8 warehouses, STW against CGC — pause
    times and their mark component.  Returns the STW and CGC record of
    each warehouse count, in that order. *)

val run : unit -> Common.metrics list

(** Figure 2: pBOB in autoserver mode on a large heap, STW against CGC —
    pauses, mark and sweep.  Returns the STW and CGC record of each
    warehouse count, in that order. *)

val run : unit -> Common.metrics list

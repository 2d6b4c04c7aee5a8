(** One open-loop server sweep, offered load against stw, cgc and gen,
    printed as two tables: [serverlat] (STW against CGC request tails)
    and [genlat] (what the nursery adds).  Returns the stw, cgc and gen
    record of each load, in that order. *)

val run : unit -> Common.metrics list

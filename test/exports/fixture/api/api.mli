(** The export checker's fixture: one dead export, one that only a test
    reaches, and one export for each way a user can name this module. *)

val dead : unit -> int
(** Used inside this unit only. *)

val for_tests : unit -> int
val via_let_module : unit -> int
val via_module_alias : unit -> int
val via_other_units_alias : unit -> int
val via_open : unit -> int
val via_let_open : unit -> int

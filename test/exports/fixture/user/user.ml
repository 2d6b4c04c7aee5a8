(* Each of [Api]'s exports but [dead] and [for_tests], reached through a
   different way of naming the module. *)

let through_let_module () =
  let module A = Exports_fixture.Api in
  A.via_let_module ()

module Alias = Exports_fixture.Api

let through_module_alias () = Alias.via_module_alias ()

let through_let_open () =
  let open Exports_fixture.Api in
  via_let_open ()

open Exports_fixture.Api

let through_open () = via_open ()

let dead () = 0
let for_tests () = dead () + 1
let via_let_module () = 2
let via_module_alias () = 3
let via_other_units_alias () = 4
let via_open () = 5
let via_let_open () = 6

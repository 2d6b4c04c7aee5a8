let through_other_units_alias () = User.Alias.via_other_units_alias ()

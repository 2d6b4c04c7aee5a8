let check () = Exports_fixture.Api.for_tests ()

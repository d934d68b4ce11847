let () =
  Audit_fixture.A.used ();
  Audit_fixture.B.Alias.aliased ()

let () =
  Audit_fixture.A.used ();
  Audit_fixture.A.tested ()

(* Aggregates every suite into one alcotest binary (dune runtest). *)

let () =
  Alcotest.run "paradigm-repro"
    [
      ("numeric", Test_numeric.suite);
      ("convex", Test_convex.suite);
      ("tape", Test_tape.suite);
      ("emit", Test_emit.suite);
      ("hvp", Test_hvp.suite);
      ("solver-prop", Test_solver_prop.suite);
      ("bounds-prop", Test_bounds_prop.suite);
      ("golden", Test_golden.suite);
      ("mdg", Test_mdg.suite);
      ("costmodel", Test_costmodel.suite);
      ("machine", Test_machine.suite);
      ("kernels", Test_kernels.suite);
      ("frontend", Test_frontend.suite);
      ("core", Test_core.suite);
      ("extensions", Test_extensions.suite);
      ("network", Test_network.suite);
      ("extensions2", Test_extensions2.suite);
      ("interp", Test_interp.suite);
      ("obs", Test_obs.suite);
      ("expand", Test_expand.suite);
      ("server", Test_server.suite);
      ("cache-prop", Test_cache_prop.suite);
      ("coalesce", Test_coalesce.suite);
      ("workgen-prop", Test_workgen_prop.suite);
      ("integration", Test_integration.suite);
    ]

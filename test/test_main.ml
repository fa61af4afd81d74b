let () =
  Alcotest.run "qagg"
    (Test_qnum.suites @ Test_qgraph.suites @ Test_qgate.suites
     @ Test_qcontrol.suites @ Test_qsim.suites @ Test_qgdg.suites
     @ Test_qsched.suites @ Test_qmap.suites @ Test_qagg.suites
     @ Test_qarith.suites @ Test_qapps.suites @ Test_qcc.suites
     @ Test_noise.suites @ Test_fermion.suites @ Test_tools.suites
     @ Test_pipeline.suites @ Test_passmgr.suites @ Test_properties.suites
     @ Test_qlint.suites @ Test_qflow.suites @ Test_qobs.suites
     @ Test_qcert.suites @ Test_domlint.suites @ Test_parallel.suites
     @ Test_cli.suites)

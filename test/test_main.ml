let () =
  Alcotest.run "sqlpl"
    [
      ("grammar", Test_grammar.suite);
      ("analysis", Test_analysis.suite);
      ("feature", Test_feature.suite);
      ("compose", Test_compose.suite);
      ("scanner", Test_scanner.suite);
      ("parser-engine", Test_parser_engine.suite);
      ("sql-model", Test_sql_model.suite);
      ("dialects", Test_dialects.suite);
      ("lowering", Test_lower.suite);
      ("engine", Test_engine.suite);
      ("executor", Test_executor.suite);
      ("executor-diff", Test_executor_diff.suite);
      ("roundtrip", Test_roundtrip.suite);
      ("report", Test_report.suite);
      ("lint", Test_lint.suite);
      ("service", Test_service.suite);
      ("wire", Test_wire.suite);
      ("serve", Test_serve.suite);
      ("stream", Test_stream.suite);
      ("conformance", Test_conformance.suite);
      ("differential", Test_differential.suite);
      ("cst", Test_cst.suite);
      ("alloc", Test_alloc.suite);
      ("negative", Test_negative.suite);
      ("properties", Test_properties.suite);
      ("printer", Test_printer.suite);
      ("cli", Test_cli.suite);
      ("family", Test_family.suite);
      ("decisions", Test_decisions.suite);
    ]

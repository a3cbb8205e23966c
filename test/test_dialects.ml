(* Experiments E4/E6: the §3.2 worked example and the prototype dialect
   parsers. Each dialect accepts exactly its corpus: its own accept set, and
   none of its reject set; the full dialect accepts every dialect corpus. *)

let check_bool = Alcotest.(check bool)

let generated =
  lazy
    (List.map
       (fun (d : Dialects.Dialect.t) ->
         match Core.generate_dialect d with
         | Ok g -> (d.Dialects.Dialect.name, g)
         | Error e -> Alcotest.failf "generate %s: %a" d.Dialects.Dialect.name Core.pp_error e)
       Dialects.Dialect.all)

let parser_of name = List.assoc name (Lazy.force generated)

let check_matrix name ~accept ~reject () =
  let g = parser_of name in
  List.iter
    (fun sql ->
      check_bool (Printf.sprintf "%s accepts: %s" name sql) true (Core.accepts g sql))
    accept;
  List.iter
    (fun sql ->
      check_bool (Printf.sprintf "%s rejects: %s" name sql) false (Core.accepts g sql))
    reject

let test_minimal =
  check_matrix "minimal" ~accept:Corpus.minimal_accept ~reject:Corpus.minimal_reject

let test_scql = check_matrix "scql" ~accept:Corpus.scql_accept ~reject:Corpus.scql_reject

let test_tinysql =
  check_matrix "tinysql" ~accept:Corpus.tinysql_accept ~reject:Corpus.tinysql_reject

let test_embedded =
  check_matrix "embedded" ~accept:Corpus.embedded_accept ~reject:Corpus.embedded_reject

let test_analytics =
  check_matrix "analytics" ~accept:Corpus.analytics_accept ~reject:Corpus.analytics_reject

let test_full_accepts_everything () =
  let g = parser_of "full" in
  List.iter
    (fun sql ->
      check_bool (Printf.sprintf "full accepts: %s" sql) true (Core.accepts g sql))
    Corpus.full_accept

let test_nothing_accepts_garbage () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun sql ->
          check_bool (Printf.sprintf "%s rejects garbage: %s" name sql) false
            (Core.accepts g sql))
        Corpus.always_reject)
    (Lazy.force generated)

let test_dialect_sizes_monotone () =
  (* Tailoring effect (E7's invariant): every restricted dialect's grammar
     and token set is strictly smaller than the full dialect's. *)
  let full = parser_of "full" in
  let full_rules = Grammar.Cfg.rule_count full.Core.grammar in
  let full_tokens = List.length full.Core.tokens in
  List.iter
    (fun (name, g) ->
      if name <> "full" then begin
        check_bool (name ^ " fewer rules") true
          (Grammar.Cfg.rule_count g.Core.grammar < full_rules);
        check_bool (name ^ " fewer tokens") true
          (List.length g.Core.tokens < full_tokens)
      end)
    (Lazy.force generated)

let test_keywords_shrink_with_features () =
  (* In the minimal dialect ORDER is not reserved, so it can be a table
     name; the full dialect reserves it. *)
  let minimal = parser_of "minimal" in
  let full = parser_of "full" in
  let sql = "SELECT a FROM order" in
  check_bool "minimal treats 'order' as identifier" true (Core.accepts minimal sql);
  check_bool "full reserves ORDER" false (Core.accepts full sql)

let test_find_and_all () =
  check_bool "find tinysql" true (Dialects.Dialect.find "tinysql" <> None);
  check_bool "find nonsense" true (Dialects.Dialect.find "nosql" = None);
  Alcotest.(check int) "six dialects" 6 (List.length Dialects.Dialect.all)

let test_all_dialect_configs_valid () =
  List.iter
    (fun (d : Dialects.Dialect.t) ->
      Alcotest.(check (list string))
        (d.Dialects.Dialect.name ^ " valid")
        []
        (List.map
           (Fmt.str "%a" Feature.Config.pp_violation)
           (Sql.Model.validate d.Dialects.Dialect.config)))
    Dialects.Dialect.all

let test_composition_sequence_exposed () =
  let g = parser_of "minimal" in
  check_bool "sequence starts at the concept" true
    (match g.Core.sequence with "SQL:2003" :: _ -> true | _ -> false);
  check_bool "sequence covers the config" true
    (List.length g.Core.sequence = Feature.Config.cardinal g.Core.config)

let test_split_statements () =
  Alcotest.(check (list string)) "splits on top-level semicolons"
    [ "SELECT a FROM t"; " SELECT 'x;y' FROM u" ]
    (Core.split_statements "SELECT a FROM t; SELECT 'x;y' FROM u;");
  Alcotest.(check (list string)) "drops blanks" []
    (Core.split_statements " ;;  ; ")

(* The splitter reads quotes and comments the way the scanner does: a [;]
   inside a string literal, a quoted identifier or a comment does not end
   the statement, an apostrophe inside a comment opens no string, and a
   piece holding only comments is blank. *)
let test_split_comments_and_quotes () =
  let check msg expected script =
    Alcotest.(check (list string)) msg expected (Core.split_statements script)
  in
  check "apostrophe in a line comment"
    [ "SELECT a FROM t -- don't\n"; " SELECT b FROM t" ]
    "SELECT a FROM t -- don't\n; SELECT b FROM t";
  check "semicolon in a line comment"
    [ "SELECT a FROM t -- note; more\n"; " SELECT b FROM t" ]
    "SELECT a FROM t -- note; more\n; SELECT b FROM t";
  check "semicolon in a block comment"
    [ "SELECT a /* x; y */ FROM t"; " SELECT b FROM t" ]
    "SELECT a /* x; y */ FROM t; SELECT b FROM t";
  check "apostrophe in a quoted identifier"
    [ "SELECT \"it's\" FROM t"; " SELECT b FROM t" ]
    "SELECT \"it's\" FROM t; SELECT b FROM t";
  check "comment markers inside a string literal"
    [ "SELECT '--' FROM t"; " SELECT '/*' FROM u"; " SELECT 1" ]
    "SELECT '--' FROM t; SELECT '/*' FROM u; SELECT 1";
  check "doubled quotes stay inside the literal"
    [ "SELECT 'it''s; here' FROM t"; " SELECT 2" ]
    "SELECT 'it''s; here' FROM t; SELECT 2";
  check "minus and slash are operators" [ "SELECT 4 - 2 / 1"; " SELECT 3-" ]
    "SELECT 4 - 2 / 1; SELECT 3-";
  check "block comment closing with extra stars"
    [ "SELECT a /* x **/ FROM t"; " SELECT b" ]
    "SELECT a /* x **/ FROM t; SELECT b";
  check "comment-only pieces are blank"
    [ "-- header; still a comment\nSELECT 1" ]
    "-- header; still a comment\nSELECT 1; /* trailer; */ ; -- done";
  (* The split pieces scan and parse: the first example used to fail with
     a lexical error at the [;]. *)
  let g = parser_of "full" in
  List.iter
    (fun sql ->
      check_bool (Printf.sprintf "parses: %s" sql) true
        (Result.is_ok (Core.parse_cst g sql)))
    (Core.split_statements
       "SELECT a FROM t -- don't\n; SELECT b /* ; */ FROM t; SELECT \"it's\" \
        FROM t")

let suite =
  [
    Alcotest.test_case "E4: minimal accept/reject" `Quick test_minimal;
    Alcotest.test_case "E6: scql accept/reject" `Quick test_scql;
    Alcotest.test_case "E6: tinysql accept/reject" `Quick test_tinysql;
    Alcotest.test_case "E6: embedded accept/reject" `Quick test_embedded;
    Alcotest.test_case "E6: analytics accept/reject" `Quick test_analytics;
    Alcotest.test_case "full accepts all corpora" `Quick test_full_accepts_everything;
    Alcotest.test_case "garbage rejected everywhere" `Quick test_nothing_accepts_garbage;
    Alcotest.test_case "tailored grammars smaller" `Quick test_dialect_sizes_monotone;
    Alcotest.test_case "keywords are features" `Quick test_keywords_shrink_with_features;
    Alcotest.test_case "dialect registry" `Quick test_find_and_all;
    Alcotest.test_case "all configs valid" `Quick test_all_dialect_configs_valid;
    Alcotest.test_case "composition sequence exposed" `Quick
      test_composition_sequence_exposed;
    Alcotest.test_case "script splitting" `Quick test_split_statements;
    Alcotest.test_case "script splitting skips comments and quoted names"
      `Quick test_split_comments_and_quotes;
  ]

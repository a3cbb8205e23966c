(* Tests for the lint subsystem: diagnostics, LL(k<=2) lookahead, the
   grammar/token/model analyses, and the product-line gates (all six
   shipped dialects lint clean at severity Error; every LL(1) conflict is
   re-found with a concrete 1-2 token witness). *)

open Grammar.Builder
module D = Lint.Diagnostic
module LA = Oracle.Lookahead

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let codes diags = List.map (fun (d : D.t) -> d.D.code) diags
let with_code code diags = List.filter (fun (d : D.t) -> String.equal d.D.code code) diags

(* --- Diagnostic ------------------------------------------------------- *)

let test_diagnostic_ordering () =
  let mk code severity =
    D.make ~code ~severity ~subject:"s" "m"
  in
  let diags = [ mk "b/info" D.Info; mk "a/warn" D.Warning; mk "c/err" D.Error ] in
  let sorted = List.sort D.compare diags in
  Alcotest.(check (list string))
    "errors first, then warnings, then info"
    [ "c/err"; "a/warn"; "b/info" ] (codes sorted);
  check_bool "has_errors" true (D.has_errors diags);
  check_int "one error" 1 (D.count D.Error diags);
  check_int "errors list" 1 (List.length (D.errors diags));
  check_bool "no errors without the error" false
    (D.has_errors (List.filter (fun d -> d.D.severity <> D.Error) diags))

let test_diagnostic_json () =
  let d =
    D.make ~code:"x/y" ~severity:D.Warning ~subject:{|a"b|}
      ~witness:[ "w1"; "w\\2" ] "line1\nline2"
  in
  let json = D.to_json d in
  let contains needle = Astring_contains.contains json needle in
  check_bool "escaped quote" true (contains {|"a\"b"|});
  check_bool "escaped newline" true (contains {|line1\nline2|});
  check_bool "escaped backslash" true (contains {|w\\2|});
  check_bool "severity field" true (contains {|"severity":"warning"|});
  check_bool "witness array" true (contains {|"witness":["w1",|})

(* --- Lookahead -------------------------------------------------------- *)

let test_lookahead_first_follow () =
  let g =
    grammar ~start:"expr"
      [
        rule "expr" [ [ nt "term"; star [ t "PLUS"; nt "term" ] ] ];
        rule "term" [ [ t "NUM" ]; [ t "LPAREN"; nt "expr"; t "RPAREN" ] ];
      ]
  in
  let la = LA.compute ~k:2 g in
  check_bool "first2 term has complete 1-yield NUM" true
    (LA.Seq_set.mem [ "NUM" ] (LA.first la "term"));
  check_bool "first2 term has LPAREN NUM" true
    (LA.Seq_set.mem [ "LPAREN"; "NUM" ] (LA.first la "term"));
  check_bool "follow2 of start contains EOF" true
    (LA.Seq_set.mem [ "EOF" ] (LA.follow la "expr"));
  check_bool "follow2 term sees PLUS then continuation" true
    (LA.Seq_set.exists
       (function "PLUS" :: _ -> true | _ -> false)
       (LA.follow la "term"))

let test_lookahead_k_bound () =
  let g = grammar ~start:"s" [ rule "s" [ [ t "A" ] ] ] in
  check_bool "k=3 rejected" true
    (try
       ignore (LA.compute ~k:3 g);
       false
     with Invalid_argument _ -> true)

let conflict_triples cs =
  List.map (fun (c : LA.conflict) -> (c.LA.lhs, c.LA.alt_a, c.LA.alt_b)) cs

let test_lookahead_k1_matches_ll1 () =
  let g =
    grammar ~start:"s"
      [
        rule "s" [ [ t "A"; t "B" ]; [ t "A"; t "C" ]; [ t "D" ] ];
        rule "u" [ [ nt "v"; t "X" ] ];
        rule "v" [ [ t "X" ]; [] ];
      ]
  in
  let ll1 =
    List.map
      (fun (c : Oracle.Analysis.conflict) ->
        (c.Oracle.Analysis.lhs, c.Oracle.Analysis.alt_a, c.Oracle.Analysis.alt_b))
      (Oracle.Analysis.ll1_conflicts g)
  in
  let lak1 = conflict_triples (LA.conflicts ~k:1 g) in
  Alcotest.(check (list (triple string int int)))
    "k=1 conflicts match ll1_conflicts"
    (List.sort compare ll1) (List.sort compare lak1)

let test_lookahead_k2_resolves () =
  (* A B | A C: ambiguous on the first token, distinguished by the second. *)
  let g =
    grammar ~start:"s" [ rule "s" [ [ t "A"; t "B" ]; [ t "A"; t "C" ] ] ]
  in
  check_int "one k=1 conflict" 1 (List.length (LA.conflicts ~k:1 g));
  check_int "no k=2 conflict" 0 (List.length (LA.conflicts ~k:2 g))

let test_lookahead_k2_persists () =
  (* A B C | A B D: the first two tokens agree; k=2 cannot separate them
     and the witness is exactly that 2-token prefix. *)
  let g =
    grammar ~start:"s"
      [ rule "s" [ [ t "A"; t "B"; t "C" ]; [ t "A"; t "B"; t "D" ] ] ]
  in
  match LA.conflicts ~k:2 g with
  | [ c ] ->
    check_bool "witness is A B" true (List.mem [ "A"; "B" ] c.LA.witnesses)
  | cs -> Alcotest.failf "expected one k=2 conflict, got %d" (List.length cs)

(* --- Grammar lint ----------------------------------------------------- *)

let test_grammar_lint_clean () =
  let g =
    grammar ~start:"expr"
      [
        rule "expr" [ [ nt "term"; star [ t "PLUS"; nt "term" ] ] ];
        rule "term" [ [ t "NUM" ]; [ t "LPAREN"; nt "expr"; t "RPAREN" ] ];
      ]
  in
  Alcotest.(check (list string)) "no diagnostics" []
    (codes (Lint.Grammar_lint.check g))

(* A broken grammar: an undefined reference, an unproductive
   left-recursive rule, an unreachable rule and a duplicated
   alternative. *)
let broken_grammar =
  grammar ~start:"s"
    [
      rule "s" [ [ nt "missing"; t "A" ]; [ t "B" ]; [ t "B" ] ];
      rule "loop" [ [ nt "loop"; t "C" ] ];
      rule "island" [ [ t "D" ] ];
    ]

let test_grammar_lint_structure () =
  let diags = Lint.Grammar_lint.check broken_grammar in
  (match with_code "grammar/undefined-nt" diags with
   | [ d ] ->
     check_bool "undefined is error" true (d.D.severity = D.Error);
     Alcotest.(check (list string)) "witness is reference chain"
       [ "s"; "missing" ] d.D.witness
   | ds -> Alcotest.failf "expected one undefined-nt, got %d" (List.length ds));
  (match with_code "grammar/unproductive" diags with
   | [ d ] ->
     Alcotest.(check string) "loop is unproductive" "loop" d.D.subject
   | ds -> Alcotest.failf "expected one unproductive, got %d" (List.length ds));
  check_bool "island unreachable" true
    (List.exists (fun (d : D.t) -> d.D.subject = "island")
       (with_code "grammar/unreachable" diags));
  (match with_code "grammar/duplicate-alt" diags with
   | [ d ] ->
     Alcotest.(check (list string)) "duplicate witness" [ "B" ] d.D.witness
   | ds -> Alcotest.failf "expected one duplicate-alt, got %d" (List.length ds))

let test_grammar_lint_conflict_split () =
  (* One conflict resolved at k=2 (Info), one persisting (Warning). *)
  let g =
    grammar ~start:"s"
      [
        rule "s" [ [ nt "res" ]; [ nt "per" ] ];
        rule "res" [ [ t "A"; t "B" ]; [ t "A"; t "C" ] ];
        rule "per" [ [ t "X"; t "Y"; t "P" ]; [ t "X"; t "Y"; t "Q" ] ];
      ]
  in
  let diags = Lint.Grammar_lint.check ~k:2 g in
  (match with_code "grammar/ll1-conflict" diags with
   | [ d ] ->
     check_bool "resolved conflict is info" true (d.D.severity = D.Info);
     Alcotest.(check (list string)) "1-token witness" [ "A" ] d.D.witness
   | ds -> Alcotest.failf "expected one ll1-conflict, got %d" (List.length ds));
  match with_code "grammar/ll2-conflict" diags with
  | [ d ] ->
    check_bool "persisting conflict is warning" true (d.D.severity = D.Warning);
    Alcotest.(check (list string)) "2-token witness" [ "X"; "Y" ] d.D.witness
  | ds -> Alcotest.failf "expected one ll2-conflict, got %d" (List.length ds)

(* --- Token lint ------------------------------------------------------- *)

let test_token_lint () =
  let g =
    grammar ~start:"s"
      [ rule "s" [ [ t "SELECT"; t "EQ"; t "MYSTERY" ] ] ]
  in
  let set =
    [
      ("SELECT", Lexing_gen.Spec.Keyword "select");
      ("SELECT2", Lexing_gen.Spec.Keyword "Select");
      ("BAD_KW", Lexing_gen.Spec.Keyword "not a word");
      ("EQ", Lexing_gen.Spec.Punct "=");
      ("EQ2", Lexing_gen.Spec.Punct "=");
      ("LE", Lexing_gen.Spec.Punct "<=");
      ("LT", Lexing_gen.Spec.Punct "<");
    ]
  in
  let diags = Lint.Token_lint.check ~grammar:g set in
  check_int "two overlaps (keyword + punct)" 2
    (List.length (with_code "token/overlap" diags));
  check_bool "overlaps are errors" true
    (List.for_all (fun (d : D.t) -> d.D.severity = D.Error)
       (with_code "token/overlap" diags));
  (match with_code "token/keyword-shadowed" diags with
   | [ d ] -> Alcotest.(check string) "bad keyword" "BAD_KW" d.D.subject
   | ds -> Alcotest.failf "expected one shadowed keyword, got %d" (List.length ds));
  check_bool "prefix punct noted" true
    (List.exists (fun (d : D.t) -> d.D.subject = "LT")
       (with_code "token/punct-prefix" diags));
  (match with_code "token/undeclared" diags with
   | [ d ] -> Alcotest.(check string) "MYSTERY undeclared" "MYSTERY" d.D.subject
   | ds -> Alcotest.failf "expected one undeclared, got %d" (List.length ds));
  check_bool "unused tokens warned" true
    (List.exists (fun (d : D.t) -> d.D.subject = "LE")
       (with_code "token/unused" diags));
  check_bool "identifier_shaped" true (Lint.Token_lint.identifier_shaped "where_");
  check_bool "not identifier_shaped" false (Lint.Token_lint.identifier_shaped "<=")

(* --- Model lint ------------------------------------------------------- *)

let feature = Feature.Tree.feature
let leaf = Feature.Tree.leaf
let mand = Feature.Tree.mandatory
let optl = Feature.Tree.optional

let test_model_lint_dead_and_contradiction () =
  (* a requires b while a excludes b: a is dead and the pair contradicts. *)
  let concept = feature "root" [ optl (leaf "a"); optl (leaf "b") ] in
  let model =
    Feature.Model.make
      ~constraints:
        [ Feature.Model.Requires ("a", "b"); Feature.Model.Excludes ("a", "b") ]
      concept
  in
  check_bool "a dead" true (List.mem "a" (Lint.Model_lint.dead_features model));
  let diags = Lint.Model_lint.check model in
  check_bool "dead-feature error" true
    (List.exists (fun (d : D.t) -> d.D.subject = "a" && d.D.severity = D.Error)
       (with_code "model/dead-feature" diags));
  check_bool "contradiction error" true
    (with_code "model/contradiction" diags <> [])

let test_model_lint_false_optional () =
  (* o is optional in the diagram but required by the mandatory sibling. *)
  let concept = feature "root" [ mand (leaf "m"); optl (leaf "o") ] in
  let model =
    Feature.Model.make ~constraints:[ Feature.Model.Requires ("m", "o") ] concept
  in
  check_bool "(root, o) false optional" true
    (List.mem ("root", "o") (Lint.Model_lint.false_optional model));
  match with_code "model/false-optional" (Lint.Model_lint.check model) with
  | [ d ] ->
    check_bool "warning severity" true (d.D.severity = D.Warning);
    Alcotest.(check (list string)) "witness parent,feature" [ "root"; "o" ]
      d.D.witness
  | ds -> Alcotest.failf "expected one false-optional, got %d" (List.length ds)

let test_model_lint_redundant () =
  let concept = feature "root" [ optl (leaf "a"); optl (leaf "b") ] in
  let model =
    Feature.Model.make
      ~constraints:
        [ Feature.Model.Requires ("a", "b"); Feature.Model.Requires ("a", "b") ]
      concept
  in
  let dups =
    List.filter
      (fun (d : D.t) -> d.D.severity = D.Warning)
      (with_code "model/redundant-constraint" (Lint.Model_lint.check model))
  in
  check_int "duplicate constraint warned once" 1 (List.length dups)

let test_model_lint_registry () =
  let concept = feature "root" [ optl (leaf "a"); optl (leaf "b") ] in
  let model = Feature.Model.make concept in
  let fragments =
    [
      ("a", [ rule "x" [ [ nt "ghost"; t "A" ] ] ]);
      ("b", [ rule "y" [ [ t "B" ] ] ]);
    ]
  in
  let diags = Lint.Model_lint.check ~fragments model in
  check_bool "root fragment-missing info" true
    (List.exists (fun (d : D.t) -> d.D.subject = "root")
       (with_code "model/fragment-missing" diags));
  match with_code "model/undefined-nt" diags with
  | [ d ] ->
    Alcotest.(check string) "ghost nowhere defined" "ghost" d.D.subject;
    check_bool "error severity" true (d.D.severity = D.Error)
  | ds -> Alcotest.failf "expected one undefined-nt, got %d" (List.length ds)

let test_broken_selection_has_error_witness () =
  (* The acceptance-criterion scenario: a selected fragment's RHS references
     a non-terminal defined only by an unselected feature's fragment. *)
  let concept = feature "root" [ optl (leaf "a"); optl (leaf "b") ] in
  let model = Feature.Model.make concept in
  let fragments =
    [
      ("a", [ rule "x" [ [ nt "y"; t "A" ] ] ]);
      ("b", [ rule "y" [ [ t "B" ] ] ]);
    ]
  in
  let config = Feature.Config.of_names [ "root"; "a" ] in
  let diags = Lint.Model_lint.check_selection ~fragments model config in
  check_bool "non-empty diagnostics" true (diags <> []);
  match with_code "model/fragment-undefined-nt" diags with
  | [ d ] ->
    check_bool "error severity" true (d.D.severity = D.Error);
    Alcotest.(check (list string))
      "witness: feature, rule, missing nt, defining-feature hint"
      [ "a"; "x"; "y"; "b" ] d.D.witness;
    check_bool "hint names the repairing feature" true
      (Astring_contains.contains d.D.message {|selecting "b" would define it|})
  | ds ->
    Alcotest.failf "expected one fragment-undefined-nt, got %d" (List.length ds)

(* --- Product-line gates ----------------------------------------------- *)

(* The product [sqlpl lint] certifies: composed by the family artifact,
   then linted over its grammar, token set and feature selection. *)
let compose config = Family.instantiate (Core.family ()) config

let lint_product config =
  Result.map
    (fun (out : Compose.Composer.output) ->
      Lint.run ~model:Sql.Model.model ~config
        ~fragments:Sql.Model.fragment_rules ~tokens:out.Compose.Composer.tokens
        out.Compose.Composer.grammar)
    (compose config)

let all_dialects () =
  let ds = Dialects.Dialect.all in
  check_int "six shipped dialects" 6 (List.length ds);
  ds

let test_dialects_lint_clean_at_error () =
  List.iter
    (fun (d : Dialects.Dialect.t) ->
      match lint_product d.Dialects.Dialect.config with
      | Error _ -> Alcotest.failf "%s must compose" d.Dialects.Dialect.name
      | Ok diags ->
        check_bool
          (Printf.sprintf "%s has lint output" d.Dialects.Dialect.name)
          true (diags <> []);
        List.iter
          (fun (e : D.t) ->
            Alcotest.failf "%s: unexpected error %s <%s>: %s"
              d.Dialects.Dialect.name e.D.code e.D.subject e.D.message)
          (D.errors diags))
    (all_dialects ())

let test_dialects_dispatch_coverage () =
  (* The product-line gate behind E17: any dialect that lints clean at
     Error must parse almost entirely on committed dispatch — at least 90%
     of its choice points decided by k <= 2 lookahead tables. A dialect
     falling under the floor means a newly introduced conflict demoted a
     whole region of the grammar to backtracking. *)
  List.iter
    (fun (d : Dialects.Dialect.t) ->
      match Core.generate_dialect d with
      | Error _ -> Alcotest.failf "%s must generate" d.Dialects.Dialect.name
      | Ok g ->
        let s = Core.dispatch_summary g in
        let coverage = Parser_gen.Engine.coverage s in
        check_bool
          (Printf.sprintf "%s: %.1f%% of choice points committed (floor 90%%)"
             d.Dialects.Dialect.name (100. *. coverage))
          true (coverage >= 0.9);
        (* Every point ambiguous at k = 2 still commits per lookahead. *)
        Alcotest.(check int)
          (Printf.sprintf "%s: every ambiguous point is partial"
             d.Dialects.Dialect.name)
          s.Parser_gen.Engine.ambiguous_points
          s.Parser_gen.Engine.partial_points)
    (all_dialects ())

let test_ll2_covers_every_ll1_conflict () =
  (* Every conflict ll1_conflicts reports must resurface as a lint
     diagnostic carrying a concrete 1-2 token witness sequence. *)
  List.iter
    (fun (d : Dialects.Dialect.t) ->
      match compose d.Dialects.Dialect.config with
      | Error _ -> Alcotest.failf "%s must compose" d.Dialects.Dialect.name
      | Ok out ->
        let g = out.Compose.Composer.grammar in
        let ll1 = Oracle.Analysis.ll1_conflicts g in
        let diags = Lint.Grammar_lint.check ~k:2 g in
        let conflict_diags =
          List.filter
            (fun (dg : D.t) ->
              dg.D.code = "grammar/ll1-conflict"
              || dg.D.code = "grammar/ll2-conflict")
            diags
        in
        check_int
          (Printf.sprintf "%s: one diagnostic per LL(1) conflict"
             d.Dialects.Dialect.name)
          (List.length ll1) (List.length conflict_diags);
        List.iter
          (fun (dg : D.t) ->
            let n = List.length dg.D.witness in
            check_bool
              (Printf.sprintf "%s: witness of %s has 1-2 tokens"
                 d.Dialects.Dialect.name dg.D.subject)
              true (n = 1 || n = 2))
          conflict_diags;
        List.iter
          (fun (c : Oracle.Analysis.conflict) ->
            check_bool
              (Printf.sprintf "%s: conflict <%s> re-found"
                 d.Dialects.Dialect.name c.Oracle.Analysis.lhs)
              true
              (List.exists
                 (fun (dg : D.t) -> dg.D.subject = c.Oracle.Analysis.lhs)
                 conflict_diags))
          ll1)
    (all_dialects ())

let test_lookahead_k1_parity_on_dialects () =
  List.iter
    (fun (d : Dialects.Dialect.t) ->
      match compose d.Dialects.Dialect.config with
      | Error _ -> Alcotest.failf "%s must compose" d.Dialects.Dialect.name
      | Ok out ->
        let g = out.Compose.Composer.grammar in
        let ll1 =
          List.sort compare
            (List.map
               (fun (c : Oracle.Analysis.conflict) ->
                 ( c.Oracle.Analysis.lhs,
                   c.Oracle.Analysis.alt_a,
                   c.Oracle.Analysis.alt_b ))
               (Oracle.Analysis.ll1_conflicts g))
        in
        let lak1 = List.sort compare (conflict_triples (LA.conflicts ~k:1 g)) in
        Alcotest.(check (list (triple string int int)))
          (Printf.sprintf "%s: k=1 lookahead = ll1_conflicts"
             d.Dialects.Dialect.name)
          ll1 lak1)
    (all_dialects ())

let test_run_combines_layers () =
  match lint_product (Feature.Config.full Sql.Model.model) with
  | Error _ -> Alcotest.fail "full config must compose"
  | Ok diags ->
    let prefixes = [ "grammar/"; "token/"; "model/" ] in
    List.iter
      (fun p ->
        check_bool (p ^ " layer present or empty-by-analysis") true
          (List.for_all
             (fun (d : D.t) ->
               List.exists
                 (fun q -> String.starts_with ~prefix:q d.D.code)
                 prefixes)
             diags))
      prefixes;
    (* JSON report renders one line per diagnostic. *)
    let json = Lint.to_json_lines diags in
    let lines =
      List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' json)
    in
    check_int "one JSON line per diagnostic" (List.length diags)
      (List.length lines)

let suite =
  [
    Alcotest.test_case "diagnostic ordering" `Quick test_diagnostic_ordering;
    Alcotest.test_case "diagnostic json" `Quick test_diagnostic_json;
    Alcotest.test_case "lookahead first/follow" `Quick test_lookahead_first_follow;
    Alcotest.test_case "lookahead k bound" `Quick test_lookahead_k_bound;
    Alcotest.test_case "lookahead k1 = ll1" `Quick test_lookahead_k1_matches_ll1;
    Alcotest.test_case "lookahead k2 resolves" `Quick test_lookahead_k2_resolves;
    Alcotest.test_case "lookahead k2 persists" `Quick test_lookahead_k2_persists;
    Alcotest.test_case "grammar lint clean" `Quick test_grammar_lint_clean;
    Alcotest.test_case "grammar lint structure" `Quick test_grammar_lint_structure;
    Alcotest.test_case "grammar lint conflict split" `Quick
      test_grammar_lint_conflict_split;
    Alcotest.test_case "token lint" `Quick test_token_lint;
    Alcotest.test_case "model lint dead/contradiction" `Quick
      test_model_lint_dead_and_contradiction;
    Alcotest.test_case "model lint false optional" `Quick
      test_model_lint_false_optional;
    Alcotest.test_case "model lint redundant" `Quick test_model_lint_redundant;
    Alcotest.test_case "model lint registry" `Quick test_model_lint_registry;
    Alcotest.test_case "broken selection -> error with witness" `Quick
      test_broken_selection_has_error_witness;
    Alcotest.test_case "dialects lint clean at Error" `Quick
      test_dialects_lint_clean_at_error;
    Alcotest.test_case "dialects >=90% committed dispatch" `Quick
      test_dialects_dispatch_coverage;
    Alcotest.test_case "LL(2) covers every LL(1) conflict" `Quick
      test_ll2_covers_every_ll1_conflict;
    Alcotest.test_case "lookahead k1 parity on dialects" `Quick
      test_lookahead_k1_parity_on_dialects;
    Alcotest.test_case "run combines layers" `Quick test_run_combines_layers;
  ]

(* Tests for the composition calculus — experiment E5: the paper's §3.2
   composition rules, verbatim, plus the anchored-merge and token rules. *)

open Grammar.Builder
module Rules = Compose.Rules
module P = Grammar.Production

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let alt_testable =
  Alcotest.testable (fun ppf a -> P.pp_alt ppf a) P.alt_equal

let alts_of (p : P.t) = p.P.alts

let compose_two a b = Rules.compose_production a b

(* Paper case 1: "in composing A: BC with A: B, the production B is replaced
   with BC" — i.e. the accumulated rule A: B composed with the fragment rule
   A: BC yields A: BC. *)
let test_paper_replace () =
  let old_rule = r1 "A" [ nt "B" ] in
  let new_rule = r1 "A" [ nt "B"; nt "C" ] in
  let composed = compose_two old_rule new_rule in
  Alcotest.(check (list alt_testable)) "replaced" [ [ nt "B"; nt "C" ] ]
    (alts_of composed)

(* Paper case 2: "in composing A: B with A: BC, the production BC is
   retained". *)
let test_paper_keep () =
  let old_rule = r1 "A" [ nt "B"; nt "C" ] in
  let new_rule = r1 "A" [ nt "B" ] in
  let composed = compose_two old_rule new_rule in
  Alcotest.(check (list alt_testable)) "kept" [ [ nt "B"; nt "C" ] ]
    (alts_of composed)

(* Paper case 3: "in composing A: B with A: C, productions B and C are
   appended to obtain A : B | C". *)
let test_paper_append () =
  let old_rule = r1 "A" [ nt "B" ] in
  let new_rule = r1 "A" [ nt "C" ] in
  let composed = compose_two old_rule new_rule in
  Alcotest.(check (list alt_testable)) "appended" [ [ nt "B" ]; [ nt "C" ] ]
    (alts_of composed)

(* Paper: "A: B and A : B[C] ... can be composed in that order only" — the
   optional specification lands after its non-optional anchor. *)
let test_paper_optional_after_base () =
  let old_rule = r1 "A" [ nt "B" ] in
  let new_rule = r1 "A" [ nt "B"; opt [ nt "C" ] ] in
  let composed = compose_two old_rule new_rule in
  Alcotest.(check (list alt_testable)) "merged" [ [ nt "B"; opt [ nt "C" ] ] ]
    (alts_of composed)

let test_paper_optional_before_base () =
  let old_rule = r1 "A" [ nt "B" ] in
  let new_rule = r1 "A" [ opt [ nt "C" ]; nt "B" ] in
  let composed = compose_two old_rule new_rule in
  Alcotest.(check (list alt_testable)) "leading optional" [ [ opt [ nt "C" ]; nt "B" ] ]
    (alts_of composed)

(* Paper: "if features to be composed contain a sublist and a complex list,
   e.g., A: B and A: B [, B] respectively, then these are composed
   sequentially with the sublist being composed ahead of the complex list." *)
let test_paper_sublist_then_complex_list () =
  let old_rule = r1 "A" [ nt "B" ] in
  let new_rule = r1 "A" (comma_list (nt "B")) in
  let composed = compose_two old_rule new_rule in
  Alcotest.(check (list alt_testable)) "complex list wins"
    [ comma_list (nt "B") ]
    (alts_of composed)

(* Two independent optional extensions of the same base merge instead of
   splitting into incompatible alternatives. *)
let test_independent_optionals_merge () =
  let base = r1 "q" [ nt "body" ] in
  let with_order = r1 "q" [ nt "body"; opt [ nt "order_by" ] ] in
  let with_fetch = r1 "q" [ nt "body"; opt [ nt "fetch" ] ] in
  let composed = compose_two (compose_two base with_order) with_fetch in
  Alcotest.(check (list alt_testable)) "both clauses"
    [ [ nt "body"; opt [ nt "order_by" ]; opt [ nt "fetch" ] ] ]
    (alts_of composed)

let test_merge_dedupes () =
  let a = [ nt "B"; opt [ nt "C" ] ] in
  let b = [ nt "B"; opt [ nt "C" ]; opt [ nt "D" ] ] in
  Alcotest.check alt_testable "no duplicated optional"
    [ nt "B"; opt [ nt "C" ]; opt [ nt "D" ] ]
    (Rules.merge a b)

let test_mergeable_requires_same_skeleton () =
  check_bool "same skeleton" true
    (Rules.mergeable [ nt "B"; opt [ nt "C" ] ] [ nt "B"; opt [ nt "D" ] ]);
  check_bool "different skeleton" false
    (Rules.mergeable [ nt "B" ] [ nt "B"; nt "C" ])

(* Containment is anchored at the head symbol: suffix-sharing alternatives
   must not capture each other. *)
let test_containment_requires_same_head () =
  let savepoint = [ t "SAVEPOINT"; nt "id" ] in
  let rollback = [ t "ROLLBACK"; opt [ t "TO"; t "SAVEPOINT"; nt "id" ] ] in
  check_bool "no capture" false (Rules.contains rollback savepoint);
  let composed = compose_two (r1 "txn" rollback) (r1 "txn" savepoint) in
  check_int "both alternatives survive" 2 (List.length (alts_of composed))

let test_contains_positive () =
  check_bool "plain containment" true
    (Rules.contains [ nt "B"; nt "C" ] [ nt "B" ]);
  check_bool "containment through optional" true
    (Rules.contains [ nt "B"; opt [ nt "C" ] ] [ nt "B" ])

let test_equal_alternative_is_noop () =
  let rule_a = r1 "A" [ nt "B"; nt "C" ] in
  let composed = compose_two rule_a rule_a in
  check_int "single alternative" 1 (List.length (alts_of composed))

let test_compose_rules_appends_fresh () =
  let acc = [ r1 "a" [ t "X" ] ] in
  let fragment = [ r1 "a" [ t "X"; t "Y" ]; r1 "b" [ t "Z" ] ] in
  let out = Rules.compose_rules acc fragment in
  check_int "two rules" 2 (List.length out);
  Alcotest.(check string) "order preserved" "a" (List.hd out).P.lhs

let test_compose_production_lhs_mismatch () =
  Alcotest.check_raises "invalid arg"
    (Invalid_argument "Rules.compose_production: differing left-hand sides")
    (fun () -> ignore (compose_two (r1 "a" [ t "X" ]) (r1 "b" [ t "X" ])))

let test_outcomes () =
  let outcome old_alts new_alt = snd (Rules.compose_alt old_alts new_alt) in
  check_bool "kept" true (outcome [ [ nt "B" ] ] [ nt "B" ] = Rules.Kept_old);
  check_bool "merged" true
    (outcome [ [ nt "B" ] ] [ nt "B"; opt [ nt "C" ] ] = Rules.Merged);
  check_bool "replaced" true
    (outcome [ [ nt "B" ] ] [ nt "B"; nt "C" ] = Rules.Replaced);
  check_bool "appended" true (outcome [ [ nt "B" ] ] [ nt "C" ] = Rules.Appended)

(* --- Token composition --------------------------------------------------------- *)

let test_token_merge_union () =
  let a = [ ("SELECT", Lexing_gen.Spec.Keyword "SELECT") ] in
  let b = [ ("FROM", Lexing_gen.Spec.Keyword "FROM") ] in
  match Lexing_gen.Spec.merge a b with
  | Ok merged -> check_int "two tokens" 2 (List.length merged)
  | Error _ -> Alcotest.fail "merge must succeed"

let test_token_merge_idempotent () =
  let a = [ ("SELECT", Lexing_gen.Spec.Keyword "SELECT") ] in
  match Lexing_gen.Spec.merge a a with
  | Ok merged -> check_int "one token" 1 (List.length merged)
  | Error _ -> Alcotest.fail "identical redefinition is fine"

let test_token_merge_conflict () =
  let a = [ ("PERIOD", Lexing_gen.Spec.Punct ".") ] in
  let b = [ ("PERIOD", Lexing_gen.Spec.Keyword "PERIOD") ] in
  match Lexing_gen.Spec.merge a b with
  | Ok _ -> Alcotest.fail "conflict expected"
  | Error c -> Alcotest.(check string) "conflicting name" "PERIOD" c.Lexing_gen.Spec.name

(* --- Composer: sequencing and whole-model composition ------------------------------- *)

let test_sequence_is_preorder () =
  (* The composition sequence is the diagram pre-order restricted to the
     selection: bases before extensions, siblings in clause order — this is
     what anchors WHERE before GROUP BY in the merged table expression. *)
  let config =
    Sql.Model.close
      (Feature.Config.of_names
         [ "Where"; "Group By"; "Having"; "Comparison Predicate"; "Equals" ])
  in
  let seq = Compose.Composer.sequence Sql.Model.model config in
  let index name =
    let rec go i = function
      | [] -> Alcotest.failf "%s not in sequence" name
      | x :: rest -> if String.equal x name then i else go (i + 1) rest
    in
    go 0 seq
  in
  check_bool "base before extension" true
    (index "Table Expression" < index "Where");
  check_bool "where before group by" true (index "Where" < index "Group By");
  check_bool "group by before having" true (index "Group By" < index "Having");
  check_int "sequence covers selection" (Feature.Config.cardinal config)
    (List.length seq)

(* Product-level cases run on the production composer: the family
   artifact's mask/replay. *)
let compose config = Family.instantiate (Core.family ()) config

let test_compose_invalid_config_rejected () =
  let config = Feature.Config.of_names [ "Where" ] in
  match compose config with
  | Error (Compose.Composer.Invalid_configuration _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Compose.Composer.pp_error e
  | Ok _ -> Alcotest.fail "invalid config must be rejected"

let test_compose_minimal_grammar_exact () =
  (* The §3.2 example composes to a grammar that contains precisely the
     selected syntax: SELECT with optional quantifier, one column, one table,
     optional equality WHERE. *)
  let out =
    match compose Dialects.Dialect.minimal_select.Dialects.Dialect.config with
    | Ok out -> out
    | Error e -> Alcotest.failf "compose: %a" Compose.Composer.pp_error e
  in
  let g = out.Compose.Composer.grammar in
  let rule_alts name =
    match Grammar.Cfg.find g name with
    | Some r -> r.P.alts
    | None -> Alcotest.failf "rule %s missing" name
  in
  Alcotest.(check (list alt_testable)) "query_specification"
    [
      [
        t "SELECT"; opt [ nt "set_quantifier" ]; nt "select_list";
        nt "table_expression";
      ];
    ]
    (rule_alts "query_specification");
  Alcotest.(check (list alt_testable)) "set_quantifier has both keywords"
    [ [ t "ALL" ]; [ t "DISTINCT" ] ]
    (rule_alts "set_quantifier");
  Alcotest.(check (list alt_testable)) "single comparison operator"
    [ [ t "EQUALS" ] ]
    (rule_alts "comp_op");
  check_bool "no ORDER BY rule" true (Grammar.Cfg.find g "order_by_clause" = None);
  check_bool "no join rule" true (Grammar.Cfg.find g "join_tail" = None)

let test_compose_monotone_tokens () =
  (* Selecting more features never removes tokens. *)
  let tokens_of d =
    match compose d.Dialects.Dialect.config with
    | Ok out -> List.map fst out.Compose.Composer.tokens
    | Error e -> Alcotest.failf "compose: %a" Compose.Composer.pp_error e
  in
  let minimal = tokens_of Dialects.Dialect.minimal_select in
  let full = tokens_of Dialects.Dialect.full in
  List.iter
    (fun tok -> check_bool (tok ^ " still present in full") true (List.mem tok full))
    minimal

let test_composed_grammar_well_formed_for_samples () =
  (* Random valid configurations compose into well-formed grammars. *)
  for seed = 1 to 25 do
    let config = Feature.Config.sample Sql.Model.model ~seed in
    match Feature.Config.validate Sql.Model.model config with
    | _ :: _ -> () (* sampling can trip an excludes-free model only; skip *)
    | [] -> (
      match compose config with
      | Error e ->
        Alcotest.failf "seed %d: %a" seed Compose.Composer.pp_error e
      | Ok out -> (
        match Parser_gen.Engine.generate out.Compose.Composer.grammar with
        | Ok _ -> ()
        | Error e ->
          Alcotest.failf "seed %d: %a" seed Parser_gen.Engine.pp_gen_error e))
  done

let test_trace () =
  let config = Dialects.Dialect.minimal_select.Dialects.Dialect.config in
  let events = Compose.Composer.trace Sql.Model.model Sql.Model.registry config in
  let find_event feature lhs =
    List.find_opt
      (fun (e : Compose.Composer.trace_event) ->
        e.feature = feature && e.lhs = lhs)
      events
  in
  (* The §3.2 narrative: Set Quantifier merges into the query specification
     introduced by Query Specification; ALL introduces set_quantifier and
     DISTINCT appends to it. *)
  (match find_event "Query Specification" "query_specification" with
   | Some { outcome = None; _ } -> ()
   | _ -> Alcotest.fail "Query Specification should introduce its rule");
  (match find_event "Set Quantifier" "query_specification" with
   | Some { outcome = Some Rules.Merged; _ } -> ()
   | _ -> Alcotest.fail "Set Quantifier should merge");
  (match find_event "All" "set_quantifier" with
   | Some { outcome = None; _ } -> ()
   | _ -> Alcotest.fail "All should introduce set_quantifier");
  match find_event "Distinct" "set_quantifier" with
  | Some { outcome = Some Rules.Appended; _ } -> ()
  | _ -> Alcotest.fail "Distinct should append"

let suite =
  [
    Alcotest.test_case "paper rule: replace" `Quick test_paper_replace;
    Alcotest.test_case "paper rule: keep" `Quick test_paper_keep;
    Alcotest.test_case "paper rule: append" `Quick test_paper_append;
    Alcotest.test_case "paper rule: optional after base" `Quick
      test_paper_optional_after_base;
    Alcotest.test_case "paper rule: optional before base" `Quick
      test_paper_optional_before_base;
    Alcotest.test_case "paper rule: sublist then complex list" `Quick
      test_paper_sublist_then_complex_list;
    Alcotest.test_case "independent optionals merge" `Quick
      test_independent_optionals_merge;
    Alcotest.test_case "merge dedupes" `Quick test_merge_dedupes;
    Alcotest.test_case "mergeable skeleton" `Quick test_mergeable_requires_same_skeleton;
    Alcotest.test_case "containment anchored at head" `Quick
      test_containment_requires_same_head;
    Alcotest.test_case "containment positive" `Quick test_contains_positive;
    Alcotest.test_case "equal alternative no-op" `Quick test_equal_alternative_is_noop;
    Alcotest.test_case "compose_rules appends fresh" `Quick
      test_compose_rules_appends_fresh;
    Alcotest.test_case "lhs mismatch rejected" `Quick
      test_compose_production_lhs_mismatch;
    Alcotest.test_case "outcomes" `Quick test_outcomes;
    Alcotest.test_case "token merge union" `Quick test_token_merge_union;
    Alcotest.test_case "token merge idempotent" `Quick test_token_merge_idempotent;
    Alcotest.test_case "token merge conflict" `Quick test_token_merge_conflict;
    Alcotest.test_case "sequence is diagram pre-order" `Quick
      test_sequence_is_preorder;
    Alcotest.test_case "invalid config rejected" `Quick
      test_compose_invalid_config_rejected;
    Alcotest.test_case "minimal grammar exact (E4)" `Quick
      test_compose_minimal_grammar_exact;
    Alcotest.test_case "token monotonicity" `Quick test_compose_monotone_tokens;
    Alcotest.test_case "sampled configs compose" `Quick
      test_composed_grammar_well_formed_for_samples;
    Alcotest.test_case "composition trace (§3.2 narrative)" `Quick test_trace;
  ]

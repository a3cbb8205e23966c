(* Tests for nullable/FIRST/FOLLOW and LL(1) conflicts ([Oracle.Analysis])
   and left recursion ([Grammar.Analysis]). *)

open Grammar.Builder
module Analysis = Oracle.Analysis
module SS = Analysis.String_set

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let set_to_sorted s = SS.elements s

let check_set msg expected actual =
  Alcotest.(check (list string)) msg (List.sort String.compare expected)
    (set_to_sorted actual)

(* Classic expression grammar in EBNF form. *)
let expr_grammar =
  grammar ~start:"expr"
    [
      rule "expr" [ [ nt "term"; star [ t "PLUS"; nt "term" ] ] ];
      rule "term" [ [ nt "factor"; star [ t "TIMES"; nt "factor" ] ] ];
      rule "factor" [ [ t "NUM" ]; [ t "LPAREN"; nt "expr"; t "RPAREN" ] ];
    ]

let test_nullable () =
  let g =
    grammar ~start:"s"
      [
        rule "s" [ [ nt "a"; t "X" ] ];
        rule "a" [ [ opt [ t "Y" ] ] ];
        rule "b" [ [ t "Z" ] ];
      ]
  in
  let an = Analysis.compute g in
  check_bool "a nullable" true (SS.mem "a" an.Analysis.nullable);
  check_bool "b not nullable" false (SS.mem "b" an.Analysis.nullable);
  check_bool "s not nullable" false (SS.mem "s" an.Analysis.nullable)

let test_nullable_indirect () =
  let g =
    grammar ~start:"s"
      [ rule "s" [ [ nt "a"; nt "b" ] ]; rule "a" [ [] ]; rule "b" [ [ opt [ t "X" ] ] ] ]
  in
  let an = Analysis.compute g in
  check_bool "s nullable through chain" true (SS.mem "s" an.Analysis.nullable)

let test_first_sets () =
  let an = Analysis.compute expr_grammar in
  let first n = Analysis.String_map.find n an.Analysis.first in
  check_set "factor" [ "NUM"; "LPAREN" ] (first "factor");
  check_set "expr inherits" [ "NUM"; "LPAREN" ] (first "expr")

let test_first_through_nullable () =
  let g =
    grammar ~start:"s"
      [ rule "s" [ [ nt "a"; t "X" ] ]; rule "a" [ [ opt [ t "Y" ] ] ] ]
  in
  let an = Analysis.compute g in
  check_set "first s includes X via nullable a" [ "X"; "Y" ]
    (Analysis.String_map.find "s" an.Analysis.first)

let test_follow_sets () =
  let an = Analysis.compute expr_grammar in
  let follow n = Analysis.String_map.find n an.Analysis.follow in
  check_set "follow expr" [ "EOF"; "RPAREN" ] (follow "expr");
  check_set "follow term" [ "EOF"; "PLUS"; "RPAREN" ] (follow "term");
  check_set "follow factor" [ "EOF"; "PLUS"; "TIMES"; "RPAREN" ] (follow "factor")

let test_seq_first_nullable () =
  let an = Analysis.compute expr_grammar in
  check_bool "star is nullable" true
    (Analysis.seq_nullable an [ star [ t "PLUS" ] ]);
  check_set "seq first" [ "NUM"; "LPAREN" ]
    (Analysis.seq_first an [ nt "expr" ])

let test_ll1_no_conflicts () =
  check_int "expression grammar is LL(1)" 0
    (List.length (Analysis.ll1_conflicts expr_grammar))

let test_ll1_conflict_detected () =
  let g =
    grammar ~start:"s" [ rule "s" [ [ t "A"; t "B" ]; [ t "A"; t "C" ] ] ]
  in
  let conflicts = Analysis.ll1_conflicts g in
  check_int "one conflict" 1 (List.length conflicts);
  match conflicts with
  | [ c ] -> check_set "overlap is A" [ "A" ] c.Analysis.overlap
  | _ -> Alcotest.fail "expected one conflict"

let test_ll1_nullable_follow_conflict () =
  (* s : a X ; a : [X] — the optional alternative conflicts with FOLLOW. *)
  let g =
    grammar ~start:"s"
      [ rule "s" [ [ nt "a"; t "X" ] ]; rule "a" [ [ t "X" ]; [] ] ]
  in
  check_bool "conflict detected" true (Analysis.ll1_conflicts g <> [])

let test_left_recursion_direct () =
  let g = grammar ~start:"e" [ rule "e" [ [ nt "e"; t "PLUS"; t "N" ]; [ t "N" ] ] ] in
  Alcotest.(check (list string)) "e is left recursive" [ "e" ]
    (Grammar.Analysis.left_recursive g)

let test_left_recursion_indirect () =
  let g =
    grammar ~start:"a"
      [ rule "a" [ [ nt "b"; t "X" ] ]; rule "b" [ [ nt "a"; t "Y" ]; [ t "Z" ] ] ]
  in
  let lr = Grammar.Analysis.left_recursive g in
  check_bool "a detected" true (List.mem "a" lr);
  check_bool "b detected" true (List.mem "b" lr)

let test_left_recursion_through_nullable () =
  (* a : b a — left recursive because b is nullable. *)
  let g =
    grammar ~start:"a"
      [ rule "a" [ [ nt "b"; nt "a"; t "X" ]; [ t "Y" ] ]; rule "b" [ [ opt [ t "Z" ] ] ] ]
  in
  check_bool "nullable prefix left recursion" true
    (List.mem "a" (Grammar.Analysis.left_recursive g))

let test_left_recursion_mutual_three_way () =
  (* a -> b -> c -> a: every member of the cycle is reported. *)
  let g =
    grammar ~start:"a"
      [
        rule "a" [ [ nt "b"; t "X" ]; [ t "N" ] ];
        rule "b" [ [ nt "c"; t "Y" ] ];
        rule "c" [ [ nt "a"; t "Z" ] ];
      ]
  in
  let lr = Grammar.Analysis.left_recursive g in
  List.iter
    (fun n -> check_bool (n ^ " in three-way cycle") true (List.mem n lr))
    [ "a"; "b"; "c" ]

let test_left_recursion_epsilon_cycle () =
  (* The cycle runs entirely through optional (epsilon-possible) prefixes:
     a : [b] Y and b : [a] Z reach each other without consuming a terminal,
     and e : [e] X reaches itself. The start rule s is not on a cycle. *)
  let g =
    grammar ~start:"s"
      [
        rule "s" [ [ nt "a"; nt "e"; t "X" ] ];
        rule "a" [ [ opt [ nt "b" ]; t "Y" ] ];
        rule "b" [ [ opt [ nt "a" ]; t "Z" ] ];
        rule "e" [ [ opt [ nt "e" ]; t "X" ] ];
      ]
  in
  let lr = Grammar.Analysis.left_recursive g in
  check_bool "a in epsilon cycle" true (List.mem "a" lr);
  check_bool "b in epsilon cycle" true (List.mem "b" lr);
  check_bool "e self epsilon cycle" true (List.mem "e" lr);
  check_bool "s not recursive" false (List.mem "s" lr)

let test_no_left_recursion () =
  Alcotest.(check (list string)) "expression grammar clean" []
    (Grammar.Analysis.left_recursive expr_grammar)

let test_full_sql_grammar_is_analyzable () =
  (* The composed full SQL grammar: no left recursion (required by the
     generator) and FIRST of the start covers all statement openers. *)
  match
    Family.instantiate (Core.family ()) (Feature.Config.full Sql.Model.model)
  with
  | Error _ -> Alcotest.fail "full config must compose"
  | Ok out ->
    let g = out.Compose.Composer.grammar in
    Alcotest.(check (list string)) "no left recursion" [] (Grammar.Analysis.left_recursive g);
    let an = Analysis.compute g in
    let first = Analysis.String_map.find "sql_statement" an.Analysis.first in
    List.iter
      (fun kw -> check_bool (kw ^ " starts a statement") true (SS.mem kw first))
      [ "SELECT"; "INSERT"; "UPDATE"; "DELETE"; "CREATE"; "DROP"; "GRANT"; "COMMIT" ]

let suite =
  [
    Alcotest.test_case "nullable" `Quick test_nullable;
    Alcotest.test_case "nullable indirect" `Quick test_nullable_indirect;
    Alcotest.test_case "first sets" `Quick test_first_sets;
    Alcotest.test_case "first through nullable" `Quick test_first_through_nullable;
    Alcotest.test_case "follow sets" `Quick test_follow_sets;
    Alcotest.test_case "seq first/nullable" `Quick test_seq_first_nullable;
    Alcotest.test_case "ll1 clean grammar" `Quick test_ll1_no_conflicts;
    Alcotest.test_case "ll1 conflict detected" `Quick test_ll1_conflict_detected;
    Alcotest.test_case "ll1 nullable/follow conflict" `Quick test_ll1_nullable_follow_conflict;
    Alcotest.test_case "left recursion direct" `Quick test_left_recursion_direct;
    Alcotest.test_case "left recursion indirect" `Quick test_left_recursion_indirect;
    Alcotest.test_case "left recursion nullable prefix" `Quick
      test_left_recursion_through_nullable;
    Alcotest.test_case "left recursion mutual three-way" `Quick
      test_left_recursion_mutual_three_way;
    Alcotest.test_case "left recursion epsilon cycle" `Quick
      test_left_recursion_epsilon_cycle;
    Alcotest.test_case "no false left recursion" `Quick test_no_left_recursion;
    Alcotest.test_case "full SQL grammar analyzable" `Quick
      test_full_sql_grammar_is_analyzable;
  ]

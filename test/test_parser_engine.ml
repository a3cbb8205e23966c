(* Tests for the parser generator/engine on toy grammars: prediction,
   backtracking, repetition, error reporting, and the CST. *)

open Grammar.Builder
module Engine = Parser_gen.Engine
module Cst = Parser_gen.Cst

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let gen g =
  match Engine.generate g with
  | Ok p -> p
  | Error e -> Alcotest.failf "generate: %a" Engine.pp_gen_error e

let parse p input =
  Engine.parse_tokens p (Array.of_list (Def_tokens.tokens input))

let parse_ok p input =
  match parse p input with
  | Ok tree -> tree
  | Error e -> Alcotest.failf "parse %S: %a" input Engine.pp_parse_error e

let accepts p input = Result.is_ok (parse p input)

(* Arithmetic grammar with repetition and grouping. *)
let arith_g =
  grammar ~start:"expr"
    [
      rule "expr" [ [ nt "term"; star [ t "PLUS"; nt "term" ] ] ];
      rule "term" [ [ nt "factor"; star [ t "TIMES"; nt "factor" ] ] ];
      rule "factor"
        [ [ t "UNSIGNED_INTEGER" ]; [ t "LPAREN"; nt "expr"; t "RPAREN" ] ];
    ]

let arith = gen arith_g

let test_arith_accepts () =
  List.iter
    (fun s -> check_bool s true (accepts arith s))
    [ "1"; "1 + 2"; "1 + 2 * 3"; "(1 + 2) * 3"; "((((5))))"; "1+2+3+4+5" ]

let test_arith_rejects () =
  List.iter
    (fun s -> check_bool s false (accepts arith s))
    [ ""; "+"; "1 +"; "(1"; "1)"; "1 2"; "1 + * 2" ]

(* Tree helpers over the [Cst.t] view, used by the two cases below. *)
let children_labelled t lbl =
  List.filter (fun c -> String.equal (Cst.label c) lbl) (Cst.children t)

let rec descendant t lbl =
  if String.equal (Cst.label t) lbl then Some t
  else List.find_map (fun c -> descendant c lbl) (Cst.children t)

let rec tokens = function
  | Cst.Leaf tok -> [ tok ]
  | Cst.Node (_, cs) -> List.concat_map tokens cs

let first_token t = List.nth_opt (tokens t) 0

let rec node_count = function
  | Cst.Leaf _ -> 1
  | Cst.Node (_, cs) -> 1 + List.fold_left (fun n c -> n + node_count c) 0 cs

let test_cst_shape () =
  let tree = parse_ok arith "1 + 2" in
  Alcotest.(check string) "root" "expr" (Cst.label tree);
  check_int "two terms" 2 (List.length (children_labelled tree "term"));
  match first_token tree with
  | Some tok -> Alcotest.(check string) "first token text" "1" tok.Lexing_gen.Token.text
  | None -> Alcotest.fail "token expected"

let test_cst_navigation () =
  let tree = parse_ok arith "(1 + 2) * 3" in
  check_bool "descendant finds nested expr" true
    (descendant tree "PLUS" <> None);
  check_int "all tokens" 7 (List.length (tokens tree));
  check_bool "node_count counts leaves and nodes" true (node_count tree > 7)

(* Backtracking: alternatives sharing a long prefix. *)
let backtracking_g =
  grammar ~start:"s"
    [
      rule "s"
        [
          [ t "IDENT"; t "PERIOD"; t "IDENT" ];
          [ t "IDENT"; t "PERIOD"; t "TIMES" ];
          [ t "IDENT" ];
        ];
    ]

let backtracking = gen backtracking_g

let test_backtracking_prefix () =
  check_bool "first alternative" true (accepts backtracking "a.b");
  check_bool "second alternative" true (accepts backtracking "a.*");
  check_bool "third alternative" true (accepts backtracking "a");
  check_bool "reject" false (accepts backtracking "a.")

(* Backtracking out of a greedy optional: [IDENT] IDENT. *)
let greedy_opt_g =
  grammar ~start:"s" [ rule "s" [ [ opt [ t "IDENT" ]; t "IDENT" ] ] ]

let greedy_opt = gen greedy_opt_g

let test_backtrack_into_optional () =
  check_bool "one ident: optional must yield" true (accepts greedy_opt "a");
  check_bool "two idents" true (accepts greedy_opt "a b");
  check_bool "three rejected" false (accepts greedy_opt "a b c")

(* Backtracking out of a greedy star: (IDENT)* IDENT. *)
let greedy_star_g =
  grammar ~start:"s" [ rule "s" [ [ star [ t "IDENT" ]; t "IDENT" ] ] ]

let greedy_star = gen greedy_star_g

let test_backtrack_into_star () =
  check_bool "single" true (accepts greedy_star "a");
  check_bool "many" true (accepts greedy_star "a b c d");
  check_bool "empty rejected" false (accepts greedy_star "")

let plus_g = grammar ~start:"s" [ rule "s" [ [ plus [ t "IDENT" ] ] ] ]

let test_plus_requires_one () =
  let p = gen plus_g in
  check_bool "empty rejected" false (accepts p "");
  check_bool "one" true (accepts p "a");
  check_bool "many" true (accepts p "a b c")

let inline_group_g =
  grammar ~start:"s"
    [ rule "s" [ [ grp [ [ t "SELECT" ]; [ t "FROM" ] ]; t "IDENT" ] ] ]

let test_inline_group () =
  let p = gen inline_group_g in
  check_bool "first branch" true (accepts p "SELECT a");
  check_bool "second branch" true (accepts p "FROM a");
  check_bool "no branch" false (accepts p "a a")

(* A star of a nullable body must not loop forever. *)
let nullable_star_g =
  grammar ~start:"s" [ rule "s" [ [ star [ opt [ t "IDENT" ] ]; t "PLUS" ] ] ]

let test_nullable_star_no_loop () =
  let p = gen nullable_star_g in
  check_bool "terminates and accepts" true (accepts p "a +");
  check_bool "terminates on empty" true (accepts p "+")

let test_error_position_and_expected () =
  match parse arith "1 + + 2" with
  | Ok _ -> Alcotest.fail "must fail"
  | Error e ->
    check_int "column of second plus" 5 e.Engine.pos.Lexing_gen.Token.column;
    check_bool "expected includes integer" true
      (List.mem "UNSIGNED_INTEGER" e.Engine.expected);
    check_bool "expected includes lparen" true (List.mem "LPAREN" e.Engine.expected)

let test_error_at_eof () =
  match parse arith "1 +" with
  | Ok _ -> Alcotest.fail "must fail"
  | Error e -> Alcotest.(check string) "found EOF" "EOF" e.Engine.found

let test_error_past_last_token () =
  (* A failure past the last token of a hand-built stream (no EOF
     sentinel) reports the position just past that token's span — not the
     token's own start, which the engine historically (and the reference
     engine still) clamps to. On scanner streams the two agree because the
     sentinel itself sits past the last real token. *)
  let p =
    gen
      (grammar ~start:"s"
         [ rule "s" [ [ t "SELECT"; t "IDENT" ] ] ])
  in
  let tok =
    {
      Lexing_gen.Token.kind = "SELECT";
      kind_id = Lexing_gen.Token.no_id;
      text = "SELECT";
      pos = { Lexing_gen.Token.line = 1; column = 1; offset = 0 };
    }
  in
  match Engine.parse_tokens p [| tok |] with
  | Ok _ -> Alcotest.fail "must fail"
  | Error e ->
    Alcotest.(check string) "found EOF" "EOF" e.Engine.found;
    check_int "column past SELECT" 7 e.Engine.pos.Lexing_gen.Token.column;
    check_int "offset past SELECT" 6 e.Engine.pos.Lexing_gen.Token.offset;
    check_bool "expected IDENT" true (List.mem "IDENT" e.Engine.expected)

let test_trailing_input_rejected () =
  match parse arith "1 2" with
  | Ok _ -> Alcotest.fail "must fail"
  | Error e -> check_bool "expected EOF or operator" true (e.Engine.expected <> [])

let test_generate_rejects_left_recursion () =
  let g = grammar ~start:"e" [ rule "e" [ [ nt "e"; t "PLUS" ]; [ t "IDENT" ] ] ] in
  match Engine.generate g with
  | Error (Engine.Left_recursion [ "e" ]) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Engine.pp_gen_error e
  | Ok _ -> Alcotest.fail "left recursion must be rejected"

let test_generate_rejects_undefined () =
  let g = grammar ~start:"s" [ rule "s" [ [ nt "ghost" ] ] ] in
  match Engine.generate g with
  | Error (Engine.Grammar_problems _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Engine.pp_gen_error e
  | Ok _ -> Alcotest.fail "undefined nonterminal must be rejected"

let unreachable_helper_g =
  grammar ~start:"s"
    [ rule "s" [ [ t "IDENT" ] ]; rule "helper" [ [ t "PLUS" ] ] ]

let test_generate_tolerates_unreachable () =
  check_bool "unreachable helper tolerated" true
    (Result.is_ok (Engine.generate unreachable_helper_g))

let start_override_g =
  grammar ~start:"s"
    [ rule "s" [ [ t "SELECT"; nt "name" ] ]; rule "name" [ [ t "IDENT" ] ] ]

let test_accessors () =
  Alcotest.(check string) "start symbol" "expr" (Engine.start_symbol arith);
  check_int "grammar rules" 3 (Grammar.Cfg.rule_count (Engine.grammar arith))

(* Deep nesting exercises the engine's recursion. *)
let test_deep_nesting () =
  let depth = 200 in
  let input = String.concat "" (List.init depth (fun _ -> "(")) ^ "1"
              ^ String.concat "" (List.init depth (fun _ -> ")")) in
  check_bool "deeply nested parens" true (accepts arith input)

let test_long_repetition () =
  let input = String.concat " + " (List.init 2000 (fun i -> string_of_int i)) in
  check_bool "2000-term sum" true (accepts arith input)

(* The hand-built grammars above that have choice points, for the
   decision-level differential test of the lookahead analysis. *)
let grammars =
  [
    ("arith", arith_g);
    ("backtracking", backtracking_g);
    ("greedy opt", greedy_opt_g);
    ("greedy star", greedy_star_g);
    ("plus", plus_g);
    ("inline group", inline_group_g);
    ("nullable star", nullable_star_g);
    ("unreachable helper", unreachable_helper_g);
    ("start override", start_override_g);
  ]

let suite =
  [
    Alcotest.test_case "arith accepts" `Quick test_arith_accepts;
    Alcotest.test_case "arith rejects" `Quick test_arith_rejects;
    Alcotest.test_case "cst shape" `Quick test_cst_shape;
    Alcotest.test_case "cst navigation" `Quick test_cst_navigation;
    Alcotest.test_case "backtracking shared prefix" `Quick test_backtracking_prefix;
    Alcotest.test_case "backtrack into optional" `Quick test_backtrack_into_optional;
    Alcotest.test_case "backtrack into star" `Quick test_backtrack_into_star;
    Alcotest.test_case "plus requires one" `Quick test_plus_requires_one;
    Alcotest.test_case "inline group" `Quick test_inline_group;
    Alcotest.test_case "nullable star terminates" `Quick test_nullable_star_no_loop;
    Alcotest.test_case "error position and expected set" `Quick
      test_error_position_and_expected;
    Alcotest.test_case "error at EOF" `Quick test_error_at_eof;
    Alcotest.test_case "error past last token" `Quick
      test_error_past_last_token;
    Alcotest.test_case "trailing input rejected" `Quick test_trailing_input_rejected;
    Alcotest.test_case "reject left recursion" `Quick test_generate_rejects_left_recursion;
    Alcotest.test_case "reject undefined nonterminal" `Quick test_generate_rejects_undefined;
    Alcotest.test_case "tolerate unreachable helper" `Quick
      test_generate_tolerates_unreachable;
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
    Alcotest.test_case "long repetition" `Quick test_long_repetition;
  ]

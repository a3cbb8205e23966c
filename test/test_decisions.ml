(* Differential test of the LL(k <= 2) analysis.

   Parser_gen.Ilookahead is the classifier every generated parser uses;
   Oracle.String_predict computes the same decisions from
   Oracle.Lookahead's string sequence sets. Both are run on every choice
   point the engine compiles — reached through the [?classify] seam, so
   the points and their branch phrases are exactly the engine's — for the
   six dialects' factored grammars, random valid configurations and the
   hand-built grammars of the engine tests. The decisions must be equal:
   the same kind, the same Commit1 table, the same Commit2 (and Partial,
   with its ambiguous entries) first-token table and second-token rows.

   Ilookahead is also the lint's conflict report, so on the same sources —
   the products both as written and factored — plus a broken grammar
   (undefined and unreachable rules), [Ilookahead.conflicts] must equal
   [Oracle.Lookahead.conflicts] at k = 1 and k = 2, record by record:
   the same pairs, the same full witness lists, in the same order.

   Small random grammars check all three — decisions, conflicts, and the
   FIRST_1 / nullability [Ilookahead.first1] hands the engine against
   [Oracle.Analysis] — on shapes the dialects do not reach. *)

module Predict = Parser_gen.Predict

let canonical = function
  | Predict.Commit2 (first, rows) -> `Commit2 (first, rows)
  | Predict.Partial (first, rows) -> `Partial (first, rows)
  | Predict.Commit1 table -> `Commit1 table
  | Predict.Always -> `Always
  | Predict.Fallback -> `Fallback

let kind = function
  | Predict.Always -> "Always"
  | Predict.Commit1 _ -> "Commit1"
  | Predict.Commit2 _ -> "Commit2"
  | Predict.Partial _ -> "Partial"
  | Predict.Fallback -> "Fallback"

(* Generate [g] with a classifier that asks both analyses and fails on the
   first disagreement; count the points compared per decision kind. *)
let compare_points ~label ?interner counts g =
  let interned = ref None in
  let strings = Oracle.String_predict.classifier g in
  let classify ~term_id ~n_terms ~lhs branches =
    let fast =
      match !interned with
      | Some t -> t
      | None ->
        let t =
          Parser_gen.Ilookahead.make
            ~term_id:(fun name -> Option.get (term_id name))
            ~n_terms g
        in
        interned := Some t;
        t
    in
    let d = Parser_gen.Ilookahead.decide fast ~lhs branches in
    let d' = strings ~term_id ~n_terms ~lhs branches in
    if canonical d <> canonical d' then
      Alcotest.failf "%s: <%s> choice point: interned %s, strings %s" label lhs
        (kind d) (kind d');
    Hashtbl.replace counts (kind d)
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts (kind d)));
    d
  in
  match Parser_gen.Engine.generate ?interner ~classify g with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: %a" label Parser_gen.Engine.pp_gen_error e

let conflict =
  Alcotest.testable
    (fun ppf (lhs, a, b, witnesses) ->
      Fmt.pf ppf "<%s> %d/%d %a" lhs a b
        Fmt.(Dump.list (Dump.list string))
        witnesses)
    ( = )

let string_conflicts ~k g =
  List.map
    (fun (c : Oracle.Lookahead.conflict) ->
      (c.lhs, c.alt_a, c.alt_b, c.witnesses))
    (Oracle.Lookahead.conflicts ~k g)

let interned_conflicts ~k g =
  List.map
    (fun (c : Parser_gen.Ilookahead.conflict) ->
      (c.lhs, c.alt_a, c.alt_b, c.witnesses))
    (Parser_gen.Ilookahead.conflicts ~k g)

let compare_conflicts ~label g =
  List.iter
    (fun k ->
      Alcotest.(check (list conflict))
        (Printf.sprintf "%s: conflicts at k = %d" label k)
        (string_conflicts ~k g) (interned_conflicts ~k g))
    [ 1; 2 ]

let compare_product counts ~label config =
  match Core.generate ~label config with
  | Error e -> Alcotest.failf "generate %s: %a" label Core.pp_error e
  | Ok g ->
    let factored, _ = Grammar.Factor.normalize g.Core.grammar in
    compare_points ~label
      ~interner:(Lexing_gen.Scanner.interner g.Core.scanner)
      counts factored;
    compare_conflicts ~label:(label ^ " as written") g.Core.grammar;
    compare_conflicts ~label:(label ^ " factored") factored

let total counts = Hashtbl.fold (fun _ n acc -> acc + n) counts 0

let check_covers counts kinds =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "compared %s points" k)
        true (Hashtbl.mem counts k))
    kinds

let test_dialects () =
  let counts = Hashtbl.create 4 in
  List.iter
    (fun (d : Dialects.Dialect.t) ->
      compare_product counts ~label:d.Dialects.Dialect.name
        d.Dialects.Dialect.config)
    Dialects.Dialect.all;
  check_covers counts [ "Commit1"; "Commit2"; "Partial" ]

let test_random_configs () =
  let counts = Hashtbl.create 4 in
  List.iteri
    (fun i config ->
      compare_product counts ~label:(Printf.sprintf "sample-%d" i) config)
    (Test_family.random_valid_configs ~want:20);
  check_covers counts [ "Commit1"; "Commit2"; "Partial" ]

let test_hand_built () =
  let counts = Hashtbl.create 4 in
  List.iter
    (fun (label, g) ->
      compare_points ~label counts g;
      compare_conflicts ~label g)
    Test_parser_engine.grammars;
  compare_conflicts ~label:"broken" Test_lint.broken_grammar;
  Alcotest.(check bool) "compared some points" true (total counts > 0);
  check_covers counts [ "Commit1"; "Commit2"; "Partial" ]

(* Random small grammars: rules [x], [y], [z] over terminals [A], [B],
   [C], with empty (nullable) alternatives and nested optional, repeated
   and grouped phrases. They reach set shapes the dialects may not — deep
   star closures, self-recursive FOLLOW feeds, left recursion — where
   sets sharing pair rows would corrupt one another if a row were ever
   written after being stored. *)
module P = Grammar.Production
module Gen = QCheck.Gen

let gen_symbol =
  Gen.oneof
    [
      Gen.map
        (fun n -> Grammar.Symbol.Terminal n)
        (Gen.oneofa [| "A"; "B"; "C" |]);
      Gen.map
        (fun n -> Grammar.Symbol.Nonterminal n)
        (Gen.oneofa [| "x"; "y"; "z" |]);
    ]

let rec gen_term depth =
  if depth = 0 then Gen.map (fun s -> P.Sym s) gen_symbol
  else
    Gen.frequency
      [
        (3, Gen.map (fun s -> P.Sym s) gen_symbol);
        (1, Gen.map (fun ts -> P.Opt ts) (gen_alt (depth - 1)));
        (1, Gen.map (fun ts -> P.Star ts) (gen_alt (depth - 1)));
        (1, Gen.map (fun ts -> P.Plus ts) (gen_alt (depth - 1)));
        ( 1,
          Gen.map
            (fun alts -> P.Group alts)
            (Gen.list_size (Gen.int_range 2 3) (gen_alt (depth - 1))) );
      ]

and gen_alt depth = Gen.list_size (Gen.int_range 1 3) (gen_term depth)

let gen_rule_alts =
  Gen.list_size (Gen.int_range 1 3)
    (Gen.frequency [ (1, Gen.return []); (5, gen_alt 2) ])

let gen_grammar =
  Gen.map
    (fun rules ->
      Grammar.Cfg.make ~start:"x"
        (List.map2 P.make [ "x"; "y"; "z" ] rules))
    (Gen.list_repeat 3 gen_rule_alts)

(* Every choice point of a rule, with the branch phrases the engine hands
   its classifier: the rule's alternatives, and for each nested optional,
   repetition or group its branches extended with the rest of the
   enclosing alternative. *)
let choice_points (r : P.t) =
  let points = ref [ r.alts ] in
  let rec term cont = function
    | P.Sym _ -> ()
    | P.Opt ts ->
      points := [ ts @ cont; cont ] :: !points;
      seq cont ts
    | P.Star ts | P.Plus ts ->
      points := [ ts @ (P.Star ts :: cont); cont ] :: !points;
      seq (P.Star ts :: cont) ts
    | P.Group alts ->
      points := List.map (fun a -> a @ cont) alts :: !points;
      List.iter (seq cont) alts
  and seq cont = function
    | [] -> ()
    | t :: rest ->
      term (rest @ cont) t;
      seq cont rest
  in
  List.iter (seq []) r.alts;
  List.rev !points

let lookahead_agrees g =
  let interner = Lexing_gen.Interner.of_names (Grammar.Cfg.terminals g) in
  let n_terms = Lexing_gen.Interner.size interner in
  let id_opt = Lexing_gen.Interner.id_opt interner in
  let term_id name = Option.get (id_opt name) in
  let fast = Parser_gen.Ilookahead.make ~term_id ~n_terms g in
  let strings = Oracle.String_predict.classifier g in
  let an = Oracle.Analysis.compute g in
  let first1_agrees alt =
    let nullable, ids = Parser_gen.Ilookahead.first1 fast alt in
    nullable = Oracle.Analysis.seq_nullable an alt
    && ids
       = List.sort compare
           (List.map term_id
              (Oracle.Analysis.String_set.elements
                 (Oracle.Analysis.seq_first an alt)))
  in
  let points_agree (r : P.t) =
    List.iter
      (fun branches ->
        List.iter
          (fun alt ->
            if not (first1_agrees alt) then
              QCheck.Test.fail_reportf "<%s>: FIRST1 of %a differs" r.lhs
                P.pp_alt alt)
          branches;
        let d = Parser_gen.Ilookahead.decide fast ~lhs:r.lhs branches in
        let d' = strings ~term_id:id_opt ~n_terms ~lhs:r.lhs branches in
        if canonical d <> canonical d' then
          QCheck.Test.fail_reportf
            "<%s> choice point %a: interned %s, strings %s" r.lhs
            Fmt.(list ~sep:(any " | ") P.pp_alt)
            branches (kind d) (kind d'))
      (choice_points r)
  in
  List.iter points_agree g.Grammar.Cfg.rules;
  List.iter
    (fun k ->
      if string_conflicts ~k g <> interned_conflicts ~k g then
        QCheck.Test.fail_reportf "conflicts differ at k = %d" k)
    [ 1; 2 ];
  true

let random_grammars =
  QCheck.Test.make ~count:300
    ~name:"random grammars: interned = string decisions, FIRST1 and conflicts"
    (QCheck.make ~print:(Fmt.str "%a" Grammar.Cfg.pp) gen_grammar)
    lookahead_agrees

let suite =
  [
    Alcotest.test_case
      "six dialects: interned = string decisions and conflicts" `Slow
      test_dialects;
    Alcotest.test_case
      "random valid configs: interned = string decisions and conflicts" `Slow
      test_random_configs;
    Alcotest.test_case
      "hand-built grammars: interned = string decisions and conflicts" `Quick
      test_hand_built;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick random_grammars;
  ]

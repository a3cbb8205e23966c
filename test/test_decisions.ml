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
   the same pairs, the same full witness lists, in the same order. *)

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

let compare_conflicts ~label g =
  List.iter
    (fun k ->
      Alcotest.(check (list conflict))
        (Printf.sprintf "%s: conflicts at k = %d" label k)
        (List.map
           (fun (c : Oracle.Lookahead.conflict) ->
             (c.lhs, c.alt_a, c.alt_b, c.witnesses))
           (Oracle.Lookahead.conflicts ~k g))
        (List.map
           (fun (c : Parser_gen.Ilookahead.conflict) ->
             (c.lhs, c.alt_a, c.alt_b, c.witnesses))
           (Parser_gen.Ilookahead.conflicts ~k g)))
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
  ]

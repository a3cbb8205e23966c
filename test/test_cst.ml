(* [Rows.render] against its oracle [Fmt.str "%a" Cst.pp]: the wire
   renderer must reproduce Format's layout byte for byte, from the widths
   the rows recorded when they closed, on real parse trees from every
   shipped dialect and on seeded random trees built to sit on the layout
   rule's edges (flat width equal to the space left and one either side,
   chains past the 68-column indent cap, labels and leaf texts longer than
   the 78-column margin, leaves whose text is empty or equals the kind).
   The seeded trees become rows through a test-side builder
   ([Parser_gen.Rows.of_cst]). [render] appends, so it is checked into a buffer
   that already holds text. *)

open Parser_gen

let prefix = "earlier frame bytes\n"

let rendered rows =
  let o = Out.create 16 in
  Out.add_string o prefix;
  Rows.render o rows;
  Out.contents o

let check_rows ~msg ~want rows =
  let got = rendered rows in
  if not (String.equal got (prefix ^ want)) then
    Alcotest.failf
      "%s: render differs from pp@.--- pp ---@.%s@.--- render ---@.%s" msg want
      got;
  let r = Rows.root rows in
  if r >= 0 && not (String.contains want '\n') then
    Alcotest.(check int) (msg ^ ": a one-line tree's width") (String.length want)
      (Rows.width rows r)

let check_same ~msg t =
  check_rows ~msg ~want:(Fmt.str "%a" Cst.pp t) (Parser_gen.Rows.of_cst t)

let tok ?(text = "") kind =
  { Lexing_gen.Token.kind; kind_id = Lexing_gen.Token.no_id; text;
    pos = { Lexing_gen.Token.line = 1; column = 1; offset = 0 } }

(* --- real trees --------------------------------------------------------- *)

let dialect_corpus = function
  | "minimal" -> Corpus.minimal_accept
  | "scql" -> Corpus.scql_accept
  | "tinysql" -> Corpus.tinysql_accept
  | "embedded" -> Corpus.embedded_accept
  | "analytics" -> Corpus.analytics_accept
  | _ -> Corpus.full_accept

(* Each statement's rows, straight from the parse, render as [Cst.pp] of
   the tree [Core.parse_cst] materializes; the root row spans every token
   but the EOF sentinel. The seeded builder's rows of that tree render the
   same. *)
let test_dialect (d : Dialects.Dialect.t) () =
  let g =
    match Core.generate_dialect d with
    | Ok g -> g
    | Error e -> Alcotest.failf "generate %s: %a" d.name Core.pp_error e
  in
  let sampled = Service.Sentences.sample ~count:60 ~seed:4241 g in
  let parsed = ref 0 in
  List.iteri
    (fun i sql ->
      match Core.parse_cst g sql with
      | Error _ -> ()
      | Ok cst ->
        incr parsed;
        let msg = Printf.sprintf "%s #%d" d.name i in
        let want = Fmt.str "%a" Cst.pp cst in
        (match Core.parse_rows_counted g sql with
        | n, Ok rows ->
          check_rows ~msg ~want rows;
          Alcotest.(check (pair int int))
            (msg ^ ": the root spans the statement")
            (0, n)
            (Rows.span rows (Rows.root rows))
        | _, Error e -> Alcotest.failf "%s: rows: %a" msg Core.pp_error e);
        check_rows ~msg:(msg ^ ", seeded") ~want (Parser_gen.Rows.of_cst cst))
    (dialect_corpus d.name @ sampled);
  Alcotest.(check bool) "some statements parse" true (!parsed > 0)

(* --- random trees ------------------------------------------------------- *)

let word st n = String.init n (fun _ -> Char.chr (97 + Random.State.int st 26))

(* Mostly short names, now and then one past the margin. *)
let name st =
  match Random.State.int st 20 with
  | 0 -> ""
  | 1 -> word st (79 + Random.State.int st 20)
  | _ -> word st (1 + Random.State.int st 12)

let leaf st =
  let kind = name st in
  match Random.State.int st 4 with
  | 0 -> Cst.Leaf (tok kind)
  | 1 -> Cst.Leaf (tok ~text:kind kind)
  | _ -> Cst.Leaf (tok ~text:(name st) kind)

let rec tree st depth =
  if depth = 0 || Random.State.int st 3 = 0 then leaf st
  else
    Cst.Node
      ( name st,
        List.init (Random.State.int st 5) (fun _ -> tree st (depth - 1)) )

(* A node of flat width exactly [w] (at least 2): a label padded around a
   few short leaves, so it has children to break when it does not fit. *)
let sized st w =
  let kids = List.init (Random.State.int st 3) (fun _ -> Cst.Leaf (tok "k")) in
  let used = 2 + (2 * List.length kids) in
  if w < used then Cst.Node (String.make (w - 2) 'n', [])
  else Cst.Node (String.make (w - used) 'n', kids)

(* A chain of [depth] single-path ancestors (each with random siblings)
   ending in a node whose width is the space left at its column, plus
   [delta]. Every ancestor is too wide to fit, so the target starts at the
   chain's indent: [min 68 (2 * depth)]. *)
let edge_tree st ~depth ~delta =
  let indent = min 68 (2 * depth) in
  let target = sized st (max 2 (78 - indent + delta)) in
  let rec wrap d t =
    if d = 0 then t
    else
      let before = List.init (Random.State.int st 2) (fun _ -> leaf st) in
      let after = List.init (Random.State.int st 2) (fun _ -> tree st 2) in
      wrap (d - 1) (Cst.Node (word st (Random.State.int st 6), before @ (t :: after)))
  in
  wrap depth target

let test_random () =
  let st = Random.State.make [| 13 |] in
  for i = 1 to 2000 do
    check_same ~msg:(Printf.sprintf "random #%d" i) (tree st 6)
  done

let test_edges () =
  let st = Random.State.make [| 78; 68 |] in
  for depth = 0 to 45 do
    for delta = -1 to 1 do
      for i = 1 to 12 do
        check_same
          ~msg:(Printf.sprintf "depth %d, delta %d, #%d" depth delta i)
          (edge_tree st ~depth ~delta)
      done
    done
  done

(* The width check stops once the running width reaches the space left,
   [78 - col]. Targets of flat width exactly that, and one either side,
   built three ways so the stop falls in different places: many one-column
   leaves (it stops between siblings), one nested chain (it stops inside a
   grandchild), and one long leaf (it never stops early). Each sits under
   [depth] ancestors that cannot fit, at column [min 68 (2 * depth)]: up to
   and past the indent cap. *)
let fit_targets w =
  let leaves n = List.init n (fun _ -> Cst.Leaf (tok "k")) in
  let n = max 0 ((w - 3) / 2) in
  [
    Cst.Node (String.make (max 0 (w - 2 - (2 * n))) 'm', leaves n);
    Cst.Node ("a", [ Cst.Node ("b", [ Cst.Leaf (tok (String.make (max 1 (w - 8)) 'x')) ]) ]);
    Cst.Node ("c", [ Cst.Leaf (tok ~text:(String.make (max 1 (w - 7)) 't') "K") ]);
  ]

let rec under depth t =
  if depth = 0 then t
  else
    under (depth - 1)
      (Cst.Node ("wrap", [ Cst.Leaf (tok (String.make 80 'w')); t; Cst.Leaf (tok "z") ]))

let test_bounded_fit () =
  List.iter
    (fun depth ->
      let space = 78 - min 68 (2 * depth) in
      List.iter
        (fun delta ->
          List.iteri
            (fun i t ->
              check_same
                ~msg:(Printf.sprintf "depth %d, width %d, shape %d" depth (space + delta) i)
                (under depth t))
            (fit_targets (space + delta)))
        [ -1; 0; 1 ])
    [ 0; 1; 2; 10; 33; 34; 35; 36; 40; 50 ]

let test_fixed () =
  List.iter
    (fun (msg, t) -> check_same ~msg t)
    [
      ("bare leaf", Cst.Leaf (tok "SELECT"));
      ("leaf text = kind", Cst.Leaf (tok ~text:"SELECT" "SELECT"));
      ("leaf with text", Cst.Leaf (tok ~text:"x" "IDENT"));
      ("empty node", Cst.Node ("", []));
      ("empty label", Cst.Node ("", [ Cst.Leaf (tok "a"); Cst.Leaf (tok "b") ]));
      ("wide root", sized (Random.State.make [| 1 |]) 78);
      ("fitting root", sized (Random.State.make [| 1 |]) 77);
      ( "label past the margin",
        Cst.Node (String.make 100 'l', [ Cst.Leaf (tok ~text:(String.make 90 't') "K") ]) );
    ]

let suite =
  List.map
    (fun (d : Dialects.Dialect.t) ->
      Alcotest.test_case
        (Printf.sprintf "%s: to_string = pp (corpus + sampled)" d.name)
        `Quick (test_dialect d))
    Dialects.Dialect.all
  @ [
      Alcotest.test_case "fixed edge trees" `Quick test_fixed;
      Alcotest.test_case "seeded random trees" `Quick test_random;
      Alcotest.test_case "width = space left ± 1, past the indent cap" `Quick
        test_edges;
      Alcotest.test_case "bounded fit check: width = 78 - col ± 1" `Quick
        test_bounded_fit;
    ]

(* Property-based tests of the substrate invariants. *)

module Gen = QCheck.Gen

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- LIKE matcher vs. a quadratic reference implementation ----------------- *)

(* Reference: classic dynamic programming over (pattern, string). *)
let like_reference ~pattern s =
  let pl = String.length pattern and sl = String.length s in
  let dp = Array.make_matrix (pl + 1) (sl + 1) false in
  dp.(0).(0) <- true;
  for i = 1 to pl do
    if pattern.[i - 1] = '%' then dp.(i).(0) <- dp.(i - 1).(0)
  done;
  for i = 1 to pl do
    for j = 1 to sl do
      dp.(i).(j) <-
        (match pattern.[i - 1] with
         | '%' -> dp.(i - 1).(j) || dp.(i).(j - 1)
         | '_' -> dp.(i - 1).(j - 1)
         | c -> c = s.[j - 1] && dp.(i - 1).(j - 1))
    done
  done;
  dp.(pl).(sl)

(* Expose the engine's LIKE via a full-dialect session. *)
let like_session =
  lazy
    (match Core.generate_dialect Dialects.Dialect.full with
     | Ok g ->
       let s = Core.session g in
       (match Core.run s "CREATE TABLE one_row (x INTEGER)" with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%a" Core.pp_error e);
       (match Core.run s "INSERT INTO one_row (x) VALUES (1)" with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%a" Core.pp_error e);
       s
     | Error e -> Alcotest.failf "generate: %a" Core.pp_error e)

let engine_like ~pattern s =
  let session = Lazy.force like_session in
  let quote str = String.concat "''" (String.split_on_char '\'' str) in
  let sql =
    Printf.sprintf "SELECT COUNT(*) FROM one_row WHERE '%s' LIKE '%s'" (quote s)
      (quote pattern)
  in
  match Core.run session sql with
  | Ok (Engine.Executor.Rows { rows = [ [ Engine.Value.Int n ] ]; _ }) -> n = 1
  | Ok _ -> Alcotest.fail "unexpected result shape"
  | Error e -> Alcotest.failf "%a" Core.pp_error e

let gen_like_case =
  let chars = [| "a"; "b"; "%"; "_" |] in
  let strchars = [| "a"; "b"; "c" |] in
  Gen.pair
    (Gen.map (String.concat "") (Gen.list_size (Gen.int_bound 6) (Gen.oneofa chars)))
    (Gen.map (String.concat "") (Gen.list_size (Gen.int_bound 8) (Gen.oneofa strchars)))

let like_property =
  QCheck.Test.make ~count:300 ~name:"engine LIKE matches DP reference"
    (QCheck.make
       ~print:(fun (p, s) -> Printf.sprintf "pattern=%S string=%S" p s)
       gen_like_case)
    (fun (pattern, s) -> engine_like ~pattern s = like_reference ~pattern s)

(* --- LIKE matcher vs. the backtracking matcher it replaced ------------------- *)

(* The engine's former matcher, kept as the reference: it backtracks over
   every '%', so it is exponential in the number of wildcards. *)
let like_backtracking ?escape ~pattern s =
  let n = String.length pattern in
  let rec tokens i =
    if i >= n then []
    else
      let c = pattern.[i] in
      match escape with
      | Some e when c = e && i + 1 < n -> `Lit pattern.[i + 1] :: tokens (i + 2)
      | _ ->
        (match c with
         | '%' -> `Any :: tokens (i + 1)
         | '_' -> `One :: tokens (i + 1)
         | c -> `Lit c :: tokens (i + 1))
  in
  let toks = Array.of_list (tokens 0) in
  let m = String.length s in
  let rec go ti si =
    if ti >= Array.length toks then si = m
    else
      match toks.(ti) with
      | `Lit c -> si < m && s.[si] = c && go (ti + 1) (si + 1)
      | `One -> si < m && go (ti + 1) (si + 1)
      | `Any ->
        let rec try_from k = k <= m && (go (ti + 1) k || try_from (k + 1)) in
        try_from si
  in
  go 0 0

let gen_escaped_like_case =
  let pchars = [| "a"; "b"; "%"; "_"; "!"; "%"; "_" |] in
  let schars = [| "a"; "b"; "%"; "_"; "!" |] in
  Gen.triple
    (Gen.opt (Gen.oneofl [ '!'; '%'; 'a' ]))
    (Gen.map (String.concat "") (Gen.list_size (Gen.int_bound 7) (Gen.oneofa pchars)))
    (Gen.map (String.concat "") (Gen.list_size (Gen.int_bound 9) (Gen.oneofa schars)))

let like_agrees_with_backtracking =
  QCheck.Test.make ~count:2000
    ~name:"LIKE matcher agrees with the backtracking matcher"
    (QCheck.make
       ~print:(fun (e, p, s) ->
         Printf.sprintf "escape=%s pattern=%S string=%S"
           (match e with Some c -> Printf.sprintf "%C" c | None -> "none")
           p s)
       gen_escaped_like_case)
    (fun (escape, pattern, s) ->
      Engine.Like.like ?escape ~pattern s = like_backtracking ?escape ~pattern s)

(* 30 wildcards against 200 bytes: the backtracker would not finish. *)
let test_like_many_wildcards () =
  let s = String.make 200 'a' in
  let pattern = String.concat "a" (List.init 30 (fun _ -> "%")) ^ "b" in
  let t0 = Sys.time () in
  let matched = Engine.Like.like ~pattern s in
  let dt = Sys.time () -. t0 in
  Alcotest.(check bool) "no match" false matched;
  Alcotest.(check bool) "ends in a trailing b" true
    (Engine.Like.like ~pattern (s ^ "b"));
  Alcotest.(check bool)
    (Printf.sprintf "answered in %.3f s (budget 0.5 s)" dt)
    true (dt < 0.5)

(* --- Bignum vs. native integers ----------------------------------------------- *)

let gen_small = Gen.int_bound 1_000_000

let bignum_add =
  QCheck.Test.make ~count:500 ~name:"bignum add agrees with int"
    (QCheck.make ~print:(fun (a, b) -> Printf.sprintf "%d + %d" a b)
       (Gen.pair gen_small gen_small))
    (fun (a, b) ->
      Feature.Bignum.to_string (Feature.Bignum.add (Feature.Bignum.of_int a) (Feature.Bignum.of_int b))
      = string_of_int (a + b))

let bignum_mul =
  QCheck.Test.make ~count:500 ~name:"bignum mul agrees with int"
    (QCheck.make ~print:(fun (a, b) -> Printf.sprintf "%d * %d" a b)
       (Gen.pair gen_small gen_small))
    (fun (a, b) ->
      Feature.Bignum.to_string (Feature.Bignum.mul (Feature.Bignum.of_int a) (Feature.Bignum.of_int b))
      = string_of_int (a * b))

let bignum_roundtrip =
  QCheck.Test.make ~count:200 ~name:"bignum of_string/to_string"
    (QCheck.make ~print:Fun.id
       (Gen.map
          (fun digits ->
            let s = String.concat "" (List.map string_of_int digits) in
            let s = if s = "" then "0" else s in
            (* strip leading zeros, keep at least one digit *)
            let stripped =
              match String.to_seq s |> Seq.drop_while (fun c -> c = '0') |> String.of_seq with
              | "" -> "0"
              | t -> t
            in
            stripped)
          (Gen.list_size (Gen.int_range 1 40) (Gen.int_bound 9))))
    (fun s -> Feature.Bignum.to_string (Feature.Bignum.of_string s) = s)

let bignum_compare_consistent =
  QCheck.Test.make ~count:300 ~name:"bignum compare agrees with int"
    (QCheck.make ~print:(fun (a, b) -> Printf.sprintf "%d vs %d" a b)
       (Gen.pair gen_small gen_small))
    (fun (a, b) ->
      compare a b
      = Feature.Bignum.compare (Feature.Bignum.of_int a) (Feature.Bignum.of_int b))

(* --- Composition calculus ------------------------------------------------------- *)

let gen_symbol =
  Gen.oneof
    [
      Gen.map (fun n -> Grammar.Symbol.Terminal n) (Gen.oneofa [| "A"; "B"; "C" |]);
      Gen.map (fun n -> Grammar.Symbol.Nonterminal n) (Gen.oneofa [| "x"; "y"; "z" |]);
    ]

let rec gen_term depth =
  if depth = 0 then Gen.map (fun s -> Grammar.Production.Sym s) gen_symbol
  else
    Gen.oneof
      [
        Gen.map (fun s -> Grammar.Production.Sym s) gen_symbol;
        Gen.map (fun ts -> Grammar.Production.Opt ts) (gen_alt (depth - 1));
        Gen.map (fun ts -> Grammar.Production.Star ts) (gen_alt (depth - 1));
      ]

and gen_alt depth = Gen.list_size (Gen.int_range 1 3) (gen_term depth)

let gen_rule =
  Gen.map
    (fun alts -> Grammar.Production.make "r" alts)
    (Gen.list_size (Gen.int_range 1 3) (gen_alt 1))

let print_rule r = Fmt.str "%a" Grammar.Production.pp r

let compose_idempotent =
  QCheck.Test.make ~count:500 ~name:"composing a rule with itself is identity"
    (QCheck.make ~print:print_rule gen_rule)
    (fun r -> Grammar.Production.equal (Compose.Rules.compose_production r r) r)

let merge_idempotent =
  QCheck.Test.make ~count:500 ~name:"anchored merge is idempotent"
    (QCheck.make ~print:(fun a -> Fmt.str "%a" Grammar.Production.pp_alt a) (gen_alt 1))
    (fun a ->
      Compose.Rules.mergeable a a && Grammar.Production.alt_equal (Compose.Rules.merge a a) a)

let contains_reflexive =
  QCheck.Test.make ~count:500 ~name:"containment is reflexive on non-empty alts"
    (QCheck.make ~print:(fun a -> Fmt.str "%a" Grammar.Production.pp_alt a) (gen_alt 1))
    (fun a ->
      let flat = Grammar.Production.flatten a in
      if flat = [] then true else Compose.Rules.contains a a)

let compose_never_loses_language =
  (* Composing can replace alternatives but never produce an empty rule. *)
  QCheck.Test.make ~count:500 ~name:"composition preserves non-emptiness"
    (QCheck.make
       ~print:(fun (a, b) -> print_rule a ^ "  /  " ^ print_rule b)
       (Gen.pair gen_rule gen_rule))
    (fun (a, b) ->
      let composed = Compose.Rules.compose_production a b in
      composed.Grammar.Production.alts <> [])

(* --- Feature closure --------------------------------------------------------------- *)

let gen_seed =
  let names = Array.of_list (Feature.Tree.names Sql.Model.model.Feature.Model.concept) in
  Gen.map Feature.Config.of_names (Gen.list_size (Gen.int_range 1 6) (Gen.oneofa names))

let close_idempotent =
  QCheck.Test.make ~count:200 ~name:"configuration closure is idempotent"
    (QCheck.make
       ~print:(fun c -> String.concat ", " (Feature.Config.to_names c))
       gen_seed)
    (fun seed ->
      let once = Sql.Model.close seed in
      let twice = Sql.Model.close once in
      Feature.Config.to_names once = Feature.Config.to_names twice)

let close_extensive =
  QCheck.Test.make ~count:200 ~name:"closure contains its seed"
    (QCheck.make
       ~print:(fun c -> String.concat ", " (Feature.Config.to_names c))
       gen_seed)
    (fun seed ->
      let closed = Sql.Model.close seed in
      List.for_all (fun n -> Feature.Config.mem n closed) (Feature.Config.to_names seed))

(* --- Vec vs. list reference ----------------------------------------------------------- *)

let vec_filter_matches_list =
  QCheck.Test.make ~count:300 ~name:"Vec.filter_in_place matches List.filter"
    (QCheck.make
       ~print:(fun l -> String.concat ";" (List.map string_of_int l))
       (Gen.list_size (Gen.int_bound 40) (Gen.int_bound 100)))
    (fun l ->
      let v = Engine.Vec.of_list l in
      let removed = Engine.Vec.filter_in_place (fun x -> x mod 3 = 0) v in
      Engine.Vec.to_list v = List.filter (fun x -> x mod 3 = 0) l
      && removed = List.length l - List.length (List.filter (fun x -> x mod 3 = 0) l))

(* --- Robustness: the front-end never raises on arbitrary input --------------- *)

let full_front_end =
  lazy
    (match Core.generate_dialect Dialects.Dialect.full with
     | Ok g -> g
     | Error e -> Alcotest.failf "generate: %a" Core.pp_error e)

let gen_junk =
  Gen.map (String.concat "")
    (Gen.list_size (Gen.int_bound 60)
       (Gen.oneofa
          [| "SELECT"; "FROM"; "("; ")"; ","; "'"; "*"; "a"; "1"; " "; "--";
             "/*"; "\""; "."; "<"; "="; "WHERE"; ";"; "\n"; "%" |]))

let front_end_total =
  QCheck.Test.make ~count:500 ~name:"scan+parse returns a result on junk"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_junk)
    (fun input ->
      match Core.parse_cst (Lazy.force full_front_end) input with
      | Ok _ -> true
      | Error (Core.Lex_error e) ->
        e.Lexing_gen.Scanner.pos.Lexing_gen.Token.offset <= String.length input
      | Error (Core.Parse_error e) ->
        e.Parser_gen.Engine.expected <> []
        && e.Parser_gen.Engine.pos.Lexing_gen.Token.offset <= String.length input
      | Error _ -> false)

(* Mutations of valid statements: delete one token's worth of text. *)
let gen_mutated =
  let corpus = Array.of_list Corpus.full_accept in
  Gen.map2
    (fun idx cut ->
      let sql = corpus.(idx mod Array.length corpus) in
      if String.length sql < 4 then sql
      else
        let at = cut mod (String.length sql - 2) in
        String.sub sql 0 at ^ String.sub sql (at + 2) (String.length sql - at - 2))
    (Gen.int_bound 1000) (Gen.int_bound 1000)

let mutated_total =
  QCheck.Test.make ~count:500 ~name:"mutated statements never crash the pipeline"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_mutated)
    (fun sql ->
      match Core.parse_statement (Lazy.force full_front_end) sql with
      | Ok _ | Error _ -> true)

let suite =
  Alcotest.test_case "LIKE with 30 wildcards on 200 bytes answers at once"
    `Quick test_like_many_wildcards
  :: List.map to_alcotest
    [
      like_property;
      like_agrees_with_backtracking;
      bignum_add;
      bignum_mul;
      bignum_roundtrip;
      bignum_compare_consistent;
      compose_idempotent;
      merge_idempotent;
      contains_reflexive;
      compose_never_loses_language;
      close_idempotent;
      close_extensive;
      vec_filter_matches_list;
      front_end_total;
      mutated_total;
    ]

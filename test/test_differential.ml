(* Differential suite: the prediction-compiled {!Parser_gen.Engine} against
   the string-keyed {!Oracle.Reference} engine it replaced.

   The reference engine is kept as the executable specification of the
   parsing semantics. For every shipped dialect, the shipped parser runs
   over the shared accept/reject corpora plus a grammar-sampled corpus on
   every path it has, and each must produce identical outcomes: the
   {e bytecode VM} over hand-delivered token arrays
   ([Engine.parse_tokens]) and over the struct-of-arrays stream
   ([Core.parse_cst], the production path, also compared from the raw
   bytes with lexical errors included), the {e memoized} engine (same
   grammar, dispatch disabled: the pure backtracker), and the
   {e reference}. Identical means the same CST on
   acceptance (priority-ordered alternatives, greedy-but-backtrackable
   repetition) and the same furthest-failure position, found token, and
   sorted expected set on rejection. The comparison is repeated with the
   opt-in unit-rule inlining normalization, which must change tree labels
   only, never acceptance.

   Left-factoring is additionally checked directly: the factored grammar
   must yield the same CSTs and the same failure positions as the composed
   grammar it came from, with expected sets allowed to widen to supersets
   (a pruned group records the whole FIRST set of a residual suffix where
   the unfactored grammar skipped an optional prefix of it silently). *)

let check_bool = Alcotest.(check bool)

let generated =
  lazy
    (List.map
       (fun (d : Dialects.Dialect.t) ->
         match Core.generate_dialect d with
         | Ok g -> (d.Dialects.Dialect.name, g)
         | Error e ->
           Alcotest.failf "generate %s: %a" d.Dialects.Dialect.name Core.pp_error e)
       Dialects.Dialect.all)

let front_end name = List.assoc name (Lazy.force generated)

(* The same per-dialect workload the cache-equivalence test uses: static
   accept/reject lists, universally rejected statements, and the dialect's
   unselected-feature probes. *)
let corpus_for name =
  let static =
    match name with
    | "minimal" -> Corpus.minimal_accept @ Corpus.minimal_reject
    | "scql" -> Corpus.scql_accept @ Corpus.scql_reject
    | "tinysql" -> Corpus.tinysql_accept @ Corpus.tinysql_reject
    | "embedded" -> Corpus.embedded_accept @ Corpus.embedded_reject
    | "analytics" -> Corpus.analytics_accept @ Corpus.analytics_reject
    | _ -> Corpus.full_accept
  in
  static @ Corpus.always_reject
  @ (try List.assoc name Corpus.unselected with Not_found -> [])

let sampled name =
  Service.Sentences.sample ~count:40
    ~seed:(6007 + (Hashtbl.hash name mod 1000))
    (front_end name)

(* The grammar the shipped parser actually runs on: the left-factored form
   of the composed grammar. *)
let engine_grammar (g : Core.generated) = Parser_gen.Engine.grammar g.Core.parser

let reference_on grammar =
  match Oracle.Reference.generate grammar with
  | Ok r -> r
  | Error e ->
    Alcotest.failf "reference generate: %a" Parser_gen.Engine.pp_gen_error e

let engine_on ?dispatch (g : Core.generated) grammar =
  match
    Parser_gen.Engine.generate ?dispatch
      ~interner:(Lexing_gen.Scanner.interner g.Core.scanner)
      grammar
  with
  | Ok p -> p
  | Error e ->
    Alcotest.failf "engine generate: %a" Parser_gen.Engine.pp_gen_error e

(* Full structural equality: CSTs leaf-for-leaf, errors field-for-field
   (position, found token, sorted expected set). *)
let result_testable =
  Alcotest.testable
    (fun ppf -> function
      | Ok cst -> Fmt.pf ppf "Ok %a" Parser_gen.Cst.pp cst
      | Error e -> Fmt.pf ppf "Error (%a)" Parser_gen.Engine.pp_parse_error e)
    (fun a b ->
      match (a, b) with
      | Ok c1, Ok c2 -> c1 = c2
      | Error e1, Error e2 -> e1 = e2
      | _ -> false)

(* Where the dispatching run's scoped backtracking suffices, an accepted
   statement must be accepted by the VM run itself, over token arrays and
   over the SoA stream. A wrong rejection there would be masked by the
   pure rerun, which still returns the right result. (Scoped backtracking
   does not suffice everywhere: a choice is final once its enclosing
   sequence completes.) *)
let check_no_rerun ~msg parses =
  let before = Parser_gen.Engine.pure_reruns () in
  if List.for_all Fun.id (parses ()) then
    Alcotest.(check int)
      (Printf.sprintf "accepted without a pure rerun: %s" msg)
      before
      (Parser_gen.Engine.pure_reruns ())

let check_agree ~msg refp eng toks =
  Alcotest.check result_testable msg
    (Oracle.Reference.parse refp (Array.to_list toks))
    (Parser_gen.Engine.parse_tokens eng toks)

let check_engines_agree ~msg a b toks =
  Alcotest.check result_testable msg
    (Parser_gen.Engine.parse_tokens a toks)
    (Parser_gen.Engine.parse_tokens b toks)

(* Three-way: the VM (the shipped parser) = memoized (same factored
   grammar, dispatch off) = reference (executable spec on that grammar).
   The VM and the memoized engine build rows, and their trees here are
   those rows materialized ([Rows.to_cst]); the reference builds its trees
   directly. The VM is compared twice: at the token level (hand-delivered
   token arrays through [parse_tokens]) and end to end over the SoA stream
   ([Core.parse_cst]), which also exercises the lazy token materialization
   on CST leaves and error edges. *)
let agree_everywhere ~name g refp memop sql =
  let strip = function
    | Ok cst -> Ok cst
    | Error (Core.Parse_error e) -> Error (`Parse e)
    | Error (Core.Lex_error e) -> Error (`Lex e)
    | Error _ -> Error `Other
  in
  (match Core.scan_tokens g sql with
  | Error _ -> () (* lexical rejection: no token stream to disagree on *)
  | Ok toks ->
    check_agree ~msg:(Printf.sprintf "%s (ref vs vm): %s" name sql)
      refp g.Core.parser toks;
    check_engines_agree
      ~msg:(Printf.sprintf "%s (memo vs vm): %s" name sql)
      memop g.Core.parser toks;
    Alcotest.(check bool)
      (Printf.sprintf "%s (vm tokens vs vm SoA): %s" name sql)
      true
      (strip
         (Result.map_error
            (fun e -> Core.Parse_error e)
            (Parser_gen.Engine.parse_tokens g.Core.parser toks))
      = strip (Core.parse_cst g sql)));
  (* From the raw bytes: the counted entry point returns the same CST or
     error as [Core.parse_cst] (lexical errors included — the corpora hold
     statements whose rejection is lexical) and counts every token the
     scanner produced. *)
  let count, counted = Core.parse_cst_counted g sql in
  Alcotest.(check bool)
    (Printf.sprintf "%s (counted vs vm, end to end): %s" name sql)
    true
    (strip (Core.parse_cst g sql) = strip counted);
  Alcotest.(check int)
    (Printf.sprintf "%s (token count): %s" name sql)
    (match Core.scan_tokens g sql with
    | Ok toks -> Array.length toks - 1
    | Error _ -> 0)
    count;
  Alcotest.(check bool)
    (Printf.sprintf "%s (recognize agrees): %s" name sql)
    (Result.is_ok (Core.parse_cst g sql))
    (Result.is_ok (Core.recognize g sql))

let test_three_way_agreement name () =
  let g = front_end name in
  let refp = reference_on (engine_grammar g) in
  let memop = engine_on ~dispatch:false g (engine_grammar g) in
  List.iter (agree_everywhere ~name g refp memop) (corpus_for name @ sampled name)

(* Both sides of the choice points that commit per lookahead, accepted and
   with errors injected — by hand inside the chosen construct, and
   mechanically (a stray [)] appended, the last word dropped) — agree
   across every engine. On full every accepted statement must parse and
   every hand-injected error must reject, so each side is really taken. *)
let test_partial_points name () =
  let g = front_end name in
  let refp = reference_on (engine_grammar g) in
  let memop = engine_on ~dispatch:false g (engine_grammar g) in
  if name = "full" then begin
    List.iter
      (fun sql ->
        check_bool (Printf.sprintf "full accepts: %s" sql) true
          (Result.is_ok (Core.parse_cst g sql)))
      Corpus.partial_points_accept;
    List.iter
      (fun sql ->
        check_bool (Printf.sprintf "full rejects: %s" sql) false
          (Result.is_ok (Core.parse_cst g sql)))
      Corpus.partial_points_reject
  end;
  let drop_last_word sql =
    match String.rindex_opt sql ' ' with
    | Some i -> String.sub sql 0 i
    | None -> sql
  in
  List.iter (agree_everywhere ~name g refp memop)
    (Corpus.partial_points_accept @ Corpus.partial_points_reject
    @ List.concat_map
        (fun sql -> [ sql ^ " )"; drop_last_word sql ])
        Corpus.partial_points_accept)

(* Forced tails: statements whose ambiguous occurrence's first derivation
   cannot finish the statement, and their stray-[)] rejections. The
   decisive token lies past the sequence enclosing the occurrence, so the
   dispatching runs reject and the pure rerun walks the oracle's lazy
   derivation stream past its first alternative (a rejecting rerun walks
   every stream to its end). The hand-built grammars below force tails
   inside the dispatching runs themselves. *)
let test_forced_tails name () =
  let g = front_end name in
  let refp = reference_on (engine_grammar g) in
  let memop = engine_on ~dispatch:false g (engine_grammar g) in
  List.iter
    (fun sql ->
      check_bool (Printf.sprintf "%s accepts: %s" name sql) true
        (Result.is_ok (Core.parse_cst g sql)))
    Corpus.forced_tail_accept;
  List.iter
    (fun sql ->
      check_bool (Printf.sprintf "%s rejects: %s" name sql) false
        (Result.is_ok (Core.parse_cst g sql)))
    Corpus.forced_tail_reject;
  List.iter (agree_everywhere ~name g refp memop)
    (Corpus.forced_tail_accept @ Corpus.forced_tail_reject)

(* A multi-row INSERT as a list of one-token lexemes, so that list index =
   token index: [rows] rows of four values, the first [minus] of them with
   a negated third value (one token more each), which moves the statement's
   length one token at a time. *)
let insert_lexemes ~rows ~minus =
  [ "INSERT"; "INTO"; "readings"; "("; "nodeid"; ","; "temp"; ",";
    "light"; ","; "note"; ")"; "VALUES" ]
  @ List.concat
      (List.init rows (fun r ->
           (if r > 0 then [ "," ] else [])
           @ [ "("; string_of_int r; ","; Printf.sprintf "%d.25" r; "," ]
           @ (if r < minus then [ "-" ] else [])
           @ [ string_of_int (r * 7); ","; "'it''s'"; ")" ]))

(* Lexemes joined by spaces, with a line break every ninth token so that
   error positions carry lines and columns. *)
let join_lexemes lexemes =
  String.concat ""
    (List.mapi
       (fun i l -> if i = 0 then l else (if i mod 9 = 0 then "\n" else " ") ^ l)
       lexemes)

(* Accepted INSERTs whose token streams run past 256 and 512 tokens, and
   rejections whose furthest failure lies past token 256: the production
   path ([Core.parse_cst], leaf tokens read one at a time from the SoA
   stream), the memoized engine over the same stream, and the reference
   over [scan_tokens]' array must agree on every CST and on
   byte-identical error positions. *)
let test_chunk_edges () =
  let g = front_end "full" in
  let refp = reference_on (engine_grammar g) in
  let memop = engine_on ~dispatch:false g (engine_grammar g) in
  let three_way sql =
    let toks =
      match Core.scan_tokens g sql with
      | Ok toks -> toks
      | Error e -> Alcotest.failf "scan: %a" Core.pp_error e
    in
    let production =
      match Core.parse_cst g sql with
      | Ok cst -> Ok cst
      | Error (Core.Parse_error e) -> Error e
      | Error e -> Alcotest.failf "parse_cst: %a" Core.pp_error e
    in
    let memoized =
      match Core.scan_soa g sql with
      | Ok soa -> Parser_gen.Engine.parse_soa memop ~scanner:g.Core.scanner soa
      | Error e -> Alcotest.failf "scan_soa: %a" Core.pp_error e
    in
    let msg what = Printf.sprintf "%s (%d tokens)" what (Array.length toks) in
    Alcotest.check result_testable (msg "reference = production")
      (Oracle.Reference.parse refp (Array.to_list toks))
      production;
    Alcotest.check result_testable (msg "memoized = production") memoized
      production;
    agree_everywhere ~name:"full" g refp memop sql;
    (toks, production)
  in
  List.iter
    (fun (rows, minus) ->
      let lexemes = insert_lexemes ~rows ~minus in
      let toks, result = three_way (join_lexemes lexemes) in
      Alcotest.(check int) "one token per lexeme" (List.length lexemes + 1)
        (Array.length toks);
      check_bool
        (Printf.sprintf "accepted (%d tokens)" (Array.length toks))
        true (Result.is_ok result);
      (* A stray keyword before token [j] fails the statement there, and
         dropping the closing parenthesis fails it at EOF. *)
      let len = List.length lexemes in
      let stray j =
        List.concat
          (List.mapi (fun i l -> if i = j then [ "VALUES"; l ] else [ l ]) lexemes)
      in
      List.iter
        (fun broken ->
          let toks, result = three_way (join_lexemes broken) in
          match result with
          | Ok _ -> Alcotest.fail "a broken INSERT was accepted"
          | Error e ->
            check_bool
              (Printf.sprintf "failure of a %d-token INSERT lies past token 256"
                 (Array.length toks))
              true
              (e.Parser_gen.Engine.pos.Lexing_gen.Token.offset
              > toks.(256).Lexing_gen.Token.pos.Lexing_gen.Token.offset))
        (List.map stray (List.filter (fun j -> j > 256 && j < len) [ 257; 258; len - 1 ])
        @ if len > 258 then [ List.filteri (fun i _ -> i < len - 1) lexemes ] else []))
    [ (24, 1); (24, 2); (24, 3); (24, 4); (24, 5); (49, 8); (49, 9);
      (49, 10); (50, 0); (50, 1) ]

(* Factoring itself: same CSTs and failure positions as the composed
   grammar, expected sets allowed to widen. *)
let test_factoring_preserves name () =
  let g = front_end name in
  let composed = reference_on g.Core.grammar in
  let factored = reference_on (engine_grammar g) in
  List.iter
    (fun sql ->
      match Core.scan_tokens g sql with
      | Error _ -> ()
      | Ok toks -> (
        let a = Oracle.Reference.parse composed (Array.to_list toks) in
        let b = Oracle.Reference.parse factored (Array.to_list toks) in
        match (a, b) with
        | Ok c1, Ok c2 ->
          Alcotest.check
            (Alcotest.testable Parser_gen.Cst.pp ( = ))
            (Printf.sprintf "%s factored CST: %s" name sql)
            c1 c2
        | Error e1, Error e2 ->
          check_bool
            (Printf.sprintf "%s factored failure position: %s" name sql)
            true
            (e1.Parser_gen.Engine.pos = e2.Parser_gen.Engine.pos
            && e1.found = e2.found);
          check_bool
            (Printf.sprintf "%s factored expected superset: %s" name sql)
            true
            (List.for_all
               (fun t -> List.mem t e2.Parser_gen.Engine.expected)
               e1.Parser_gen.Engine.expected)
        | _ ->
          Alcotest.failf "%s factoring changed acceptance of: %s" name sql))
    (corpus_for name @ sampled name)

(* The opt-in inlining normalization relabels trees, so the three engines
   are compared with all of them running the same inlined grammar. *)
let test_inlined_agreement name () =
  let g = front_end name in
  let inlined, _ = Grammar.Factor.normalize ~inline:true g.Core.grammar in
  let refp = reference_on inlined in
  let vm = engine_on g inlined in
  let memop = engine_on ~dispatch:false g inlined in
  List.iter
    (fun sql ->
      match Core.scan_tokens g sql with
      | Error _ -> ()
      | Ok toks ->
        check_agree
          ~msg:(Printf.sprintf "%s inlined (ref vs vm): %s" name sql)
          refp vm toks;
        check_engines_agree
          ~msg:(Printf.sprintf "%s inlined (memo vs vm): %s" name sql)
          memop vm toks)
    (corpus_for name @ sampled name)

let test_reinterning_boundary () =
  (* Tokens that never went through the shared scanner (hand-built, or from
     a foreign scanner) carry [no_id] or a foreign stamp; the engine must
     re-intern them by kind and still agree with the reference. *)
  let g = front_end "embedded" in
  let refp = reference_on (engine_grammar g) in
  List.iter
    (fun sql ->
      match Core.scan_tokens g sql with
      | Error _ -> ()
      | Ok toks ->
        let stripped =
          Array.map
            (fun (t : Lexing_gen.Token.t) ->
              { t with Lexing_gen.Token.kind_id = Lexing_gen.Token.no_id })
            toks
        in
        check_agree
          ~msg:(Printf.sprintf "embedded (unstamped tokens): %s" sql)
          refp g.Core.parser stripped)
    (Corpus.embedded_accept @ Corpus.embedded_reject)

(* Classification unit tests: lookahead strength maps to the right
   decision, and fallback rules still parse (on the memoized path). *)

let build_engine ?dispatch g =
  match Parser_gen.Engine.generate ?dispatch g with
  | Ok p -> p
  | Error e -> Alcotest.failf "generate: %a" Parser_gen.Engine.pp_gen_error e

let tok kind =
  { Lexing_gen.Token.kind; kind_id = Lexing_gen.Token.no_id; text = kind;
    pos = { Lexing_gen.Token.line = 1; column = 1; offset = 0 } }

let test_k2_commits () =
  (* [s : A B | A C] conflicts at k = 1 (both predict A) and resolves at
     k = 2: the whole grammar must classify committed. *)
  let open Grammar.Builder in
  let g =
    grammar ~start:"s" [ rule "s" [ [ t "A"; t "B" ]; [ t "A"; t "C" ] ] ]
  in
  let p = build_engine g in
  let s = Parser_gen.Engine.summary p in
  Alcotest.(check int) "k2 points" 1 s.Parser_gen.Engine.k2_points;
  Alcotest.(check int) "ambiguous points" 0 s.Parser_gen.Engine.ambiguous_points;
  Alcotest.(check int) "committed nts" 1 s.Parser_gen.Engine.committed_nts;
  check_bool "parses A C" true
    (Parser_gen.Engine.accepts p [ tok "A"; tok "C" ]);
  check_bool "rejects A A" false
    (Parser_gen.Engine.accepts p [ tok "A"; tok "A" ]);
  (* The VM compiles the k = 2 decision into a D2 opcode probing the
     two-level side table, and must agree token for token with the
     memoized engine. *)
  let memop = build_engine ~dispatch:false g in
  List.iter
    (fun toks ->
      let arr = Array.of_list (List.map tok (toks @ [ "EOF" ])) in
      Alcotest.check result_testable
        (Printf.sprintf "vm k2: %s" (String.concat " " toks))
        (Parser_gen.Engine.parse_tokens memop arr)
        (Parser_gen.Engine.parse_tokens p arr))
    [ [ "A"; "B" ]; [ "A"; "C" ]; [ "A"; "A" ]; [ "A" ]; [] ]

let test_ambiguous_falls_back () =
  (* FIRST_2 of both alternatives is {A B}: no bounded lookahead separates
     them, so the rule must keep backtracking — and still parse. *)
  let open Grammar.Builder in
  let g =
    grammar ~start:"s"
      [
        rule "s" [ [ nt "x"; t "D" ]; [ nt "y"; t "E" ] ];
        rule "x" [ [ t "A"; t "B" ] ];
        rule "y" [ [ t "A"; t "B"; t "C" ] ];
      ]
  in
  let p = build_engine g in
  let s = Parser_gen.Engine.summary p in
  Alcotest.(check int) "ambiguous points" 1 s.Parser_gen.Engine.ambiguous_points;
  let cls =
    List.find
      (fun c -> c.Parser_gen.Engine.nt_name = "s")
      s.Parser_gen.Engine.classes
  in
  check_bool "s not committed" false cls.Parser_gen.Engine.nt_committed;
  Alcotest.(check int) "s fallback points" 1 cls.Parser_gen.Engine.nt_fallbacks;
  (* x and y commit on their own; s consumes them through the memo path. *)
  check_bool "parses A B D" true
    (Parser_gen.Engine.accepts p [ tok "A"; tok "B"; tok "D" ]);
  check_bool "parses A B C E" true
    (Parser_gen.Engine.accepts p [ tok "A"; tok "B"; tok "C"; tok "E" ]);
  check_bool "rejects A B C D" false
    (Parser_gen.Engine.accepts p [ tok "A"; tok "B"; tok "C"; tok "D" ]);
  (* On the VM the references to [x]/[y] inside the uncommitted rule [s]
     never compile; the program boots with [FB s], so the whole statement
     is one memoized fallback occurrence, and must reproduce the memoized
     engine's results. *)
  let memop = build_engine ~dispatch:false g in
  List.iter
    (fun toks ->
      let arr = Array.of_list (List.map tok (toks @ [ "EOF" ])) in
      Alcotest.check result_testable
        (Printf.sprintf "vm fallback: %s" (String.concat " " toks))
        (Parser_gen.Engine.parse_tokens memop arr)
        (Parser_gen.Engine.parse_tokens p arr))
    [
      [ "A"; "B"; "D" ];
      [ "A"; "B"; "C"; "E" ];
      [ "A"; "B"; "C"; "D" ];
      [ "A" ];
      [];
    ]

let test_vm_choice_backtracking () =
  (* [z : B B | B B B] is ambiguous at k = 2 (both alternatives predict
     (B, B)); [s : A z C] is a single sequence, so [s] compiles and the
     reference to [z] becomes an FB opcode. On "A B B B C" the memoized
     fallback returns two derivation ends for [z] in priority order — the
     two-token end first — so the VM must push a choice point, fail at the
     MATCH of C, backtrack across the recorded stack depths, and succeed on
     the three-token end. *)
  let open Grammar.Builder in
  let g =
    grammar ~start:"s"
      [
        rule "s" [ [ t "A"; nt "z"; t "C" ] ];
        rule "z" [ [ t "B"; t "B" ]; [ t "B"; t "B"; t "B" ] ];
      ]
  in
  let p = build_engine g in
  let memop = build_engine ~dispatch:false g in
  (match Parser_gen.Engine.program p with
  | None -> Alcotest.fail "program must be compiled"
  | Some prog ->
    check_bool "start rule is compiled" true
      (Parser_gen.Program.start_entry prog >= 0);
    (* but z is not: exactly one compiled body *)
    Alcotest.(check int) "compiled rules" 1
      (Parser_gen.Program.compiled_nts prog));
  List.iter
    (fun (toks, accepted) ->
      let arr = Array.of_list (List.map tok (toks @ [ "EOF" ])) in
      let vm = Parser_gen.Engine.parse_tokens p arr in
      check_bool
        (Printf.sprintf "vm acceptance: %s" (String.concat " " toks))
        accepted (Result.is_ok vm);
      Alcotest.check result_testable
        (Printf.sprintf "vm backtracking: %s" (String.concat " " toks))
        (Parser_gen.Engine.parse_tokens memop arr)
        vm)
    [
      ([ "A"; "B"; "B"; "C" ], true);
      (* backtrack: first end (B B) fails at C, second (B B B) wins *)
      ([ "A"; "B"; "B"; "B"; "C" ], true);
      ([ "A"; "B"; "B"; "B"; "B"; "C" ], false);
      ([ "A"; "B"; "C" ], false);
      ([ "A"; "B"; "B"; "B" ], false);
    ]

(* Every engine on a hand-built grammar: the VM over token arrays and over
   the SoA stream of a scanner sharing the engine's interner (so the
   grammar is checked from the bytes), dispatch off, and the reference —
   same CSTs, same errors, and the expected acceptance, which recognition
   over the SoA stream must also give. With [~no_rerun], an accepted
   statement must be accepted by the three VM runs themselves. *)
let check_hand_built ?(no_rerun = false) g ~tokens cases =
  let scanner =
    Lexing_gen.Scanner.create
      (("LB", Lexing_gen.Spec.Punct "[")
      :: ("RB", Lexing_gen.Spec.Punct "]")
      :: List.map (fun k -> (k, Lexing_gen.Spec.Keyword k)) tokens)
  in
  let engine ?dispatch () =
    match
      Parser_gen.Engine.generate ?dispatch
        ~interner:(Lexing_gen.Scanner.interner scanner)
        g
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "generate: %a" Parser_gen.Engine.pp_gen_error e
  in
  let p = engine () and memop = engine ~dispatch:false () in
  let refp = reference_on g in
  List.iter
    (fun (input, accepted) ->
      let toks =
        match Lexing_gen.Scanner.scan_tokens scanner input with
        | Ok toks -> toks
        | Error e ->
          Alcotest.failf "scan %s: %a" input Lexing_gen.Scanner.pp_error e
      in
      let vm = Parser_gen.Engine.parse_tokens p toks in
      check_bool (Printf.sprintf "acceptance: %s" input) accepted
        (Result.is_ok vm);
      Alcotest.check result_testable
        (Printf.sprintf "reference: %s" input)
        (Oracle.Reference.parse refp (Array.to_list toks))
        vm;
      Alcotest.check result_testable
        (Printf.sprintf "memoized: %s" input)
        (Parser_gen.Engine.parse_tokens memop toks)
        vm;
      let scanned () =
        match Lexing_gen.Scanner.scan_soa scanner input with
        | Ok soa -> soa
        | Error e ->
          Alcotest.failf "scan_soa %s: %a" input Lexing_gen.Scanner.pp_error e
      in
      let soa_parse () = Parser_gen.Engine.parse_soa p ~scanner (scanned ()) in
      let recognized () =
        Result.is_ok (Parser_gen.Engine.recognize_soa p ~scanner (scanned ()))
      in
      Alcotest.check result_testable
        (Printf.sprintf "SoA from bytes: %s" input)
        (soa_parse ()) vm;
      check_bool (Printf.sprintf "recognition: %s" input) accepted
        (recognized ());
      if no_rerun then
        check_no_rerun ~msg:input (fun () ->
            [
              Result.is_ok (Parser_gen.Engine.parse_tokens p toks);
              Result.is_ok (soa_parse ());
              recognized ();
            ]))
    cases;
  p

let test_partial_point_commits_and_backtracks () =
  (* [z]'s alternatives overlap on (A, B) and on every lookahead starting
     with X, so its rule-level choice commits per lookahead: (A, C) and E
     pick one alternative, and only (A, B) and X stay ambiguous. [s]
     references [z] from a star and from a sequence, so an ambiguous
     occurrence becomes a fallback boundary inside compiled code — with
     two derivation ends to try on "A B B" and "X Y Y". *)
  let open Grammar.Builder in
  let g =
    grammar ~start:"s"
      [
        rule "s"
          [ [ t "LB"; star [ nt "z" ]; t "RB" ]; [ t "GO"; nt "z"; t "END" ] ];
        rule "z"
          [
            [ t "A"; t "B" ];
            [ t "A"; t "B"; t "B" ];
            [ t "A"; t "C" ];
            [ t "E" ];
            [ t "X"; t "Y" ];
            [ t "X"; t "Y"; t "Y" ];
          ];
      ]
  in
  let p =
    check_hand_built g
      ~tokens:[ "GO"; "END"; "A"; "B"; "C"; "E"; "X"; "Y" ]
      [
        ("GO E END", true);
        ("GO A C END", true);
        ("GO A B END", true);
        ("GO A B B END", true);
        ("GO X Y END", true);
        ("GO X Y Y END", true);
        ("[ A B A C E X Y ]", true);
        ("[ A B B E X Y Y A B ]", true);
        ("[ ]", true);
        ("GO A END", false);
        ("GO A B B B END", false);
        ("GO X END", false);
        ("GO C END", false);
        ("[ A B B B ]", false);
        ("[ X Y Y Y ]", false);
        ("[ A C", false);
      ]
  in
  let s = Parser_gen.Engine.summary p in
  Alcotest.(check int) "ambiguous points" 1 s.Parser_gen.Engine.ambiguous_points;
  Alcotest.(check int) "partial points" 1 s.Parser_gen.Engine.partial_points;
  (* The static classification is unchanged: a partial point is an
     ambiguous one, so neither rule counts as committed — yet both
     compile to bytecode. *)
  Alcotest.(check int) "no committed non-terminal" 0
    s.Parser_gen.Engine.committed_nts;
  (match Parser_gen.Engine.program p with
  | None -> Alcotest.fail "program must be compiled"
  | Some prog ->
    Alcotest.(check int) "both rules compiled" 2
      (Parser_gen.Program.compiled_nts prog));
  (* An ambiguous start entry: the whole statement is the fallback
     occurrence, and the VM resumes its next derivation end when the
     first leaves input before EOF — without a pure rerun. *)
  ignore
    (check_hand_built ~no_rerun:true
       (grammar ~start:"s"
          [ rule "s" [ [ t "A"; t "B" ]; [ t "A"; t "B"; t "B" ]; [ t "C" ] ] ])
       ~tokens:[ "A"; "B"; "C" ]
       [
         ("A B", true);
         ("A B B", true);
         ("C", true);
         ("A B B B", false);
         ("A", false);
         ("C C", false);
       ])

(* Start rules the VM cannot compile: the program boots with [FB start],
   and HALT tries the start rule's derivation ends in turn, as the
   memoized engine does at the top — no pure rerun on acceptance. *)
let test_uncompiled_start_rule () =
  let open Grammar.Builder in
  let compiled p =
    match Parser_gen.Engine.program p with
    | None -> Alcotest.fail "program must be compiled"
    | Some prog -> Parser_gen.Program.start_entry prog >= 0
  in
  (* (a) an ambiguous group ending the start rule's body keeps it out of
     the bytecode; nothing else exists to compile. On "GO X Y Y" the
     first end (GO X Y) leaves a Y before EOF, so HALT resumes the boot
     FB's choice and the second end is accepted. *)
  let p =
    check_hand_built ~no_rerun:true
      (grammar ~start:"s"
         [ rule "s" [ [ t "GO"; grp [ [ t "X"; t "Y" ]; [ t "X"; t "Y"; t "Y" ] ] ] ] ])
      ~tokens:[ "GO"; "X"; "Y" ]
      [
        ("GO X Y", true);
        ("GO X Y Y", true);
        ("GO X Y Y Y", false);
        ("GO X", false);
        ("GO", false);
        ("X Y", false);
      ]
  in
  check_bool "group-ambiguous start rule is not compiled" false (compiled p);
  (* (b) a rule-level choice that commits on no lookahead, over compiled
     rules: the memoized start rule reaches [x] and [y] through their
     strict dispatch runs. *)
  let p =
    check_hand_built ~no_rerun:true
      (grammar ~start:"s"
         [
           rule "s" [ [ nt "x"; t "D" ]; [ nt "y"; t "E" ] ];
           rule "x" [ [ t "A"; t "B" ] ];
           rule "y" [ [ t "A"; t "B"; t "C" ] ];
         ])
      ~tokens:[ "A"; "B"; "C"; "D"; "E" ]
      [
        ("A B D", true);
        ("A B C E", true);
        ("A B C D", false);
        ("A B E", false);
        ("A", false);
        ("A B D D", false);
      ]
  in
  check_bool "fallback start rule is not compiled" false (compiled p)

(* The lazy derivation stream on hand-built grammars, through every
   engine. *)
let test_lazy_stream_tails () =
  let open Grammar.Builder in
  (* (a) [z] is ambiguous on (X, Y). On "GO X Y Y END" its first
     alternative's only end fails the continuation (END expected at the
     second Y), so the consumer forces the tail and the second alternative
     succeeds. *)
  ignore
    (check_hand_built ~no_rerun:true
       (grammar ~start:"s"
          [
            rule "s" [ [ t "GO"; nt "z"; t "END" ] ];
            rule "z" [ [ t "X"; t "Y" ]; [ t "X"; t "Y"; t "Y" ] ];
          ])
       ~tokens:[ "GO"; "END"; "X"; "Y" ]
       [
         ("GO X Y END", true);
         ("GO X Y Y END", true);
         ("GO X Y Y Y END", false);
         ("GO X END", false);
       ]);
  (* (b) [a] is ambiguous on (X, X) and [c] on (X, Q). On "GO X X Q Y END"
     the VM takes [a]'s first end (X) and [c]'s first end (X Q), pushing a
     choice for each with its tail unforced. END fails at Y; [c]'s tail
     forces to [Nil] (X Q W W fails, and Q Y does not start at X), so that
     choice is popped and backtracking carries on to [a]'s, whose second
     end (X X) lets [c] commit to Q Y. *)
  ignore
    (check_hand_built ~no_rerun:true
       (grammar ~start:"s"
          [
            rule "s" [ [ t "GO"; nt "a"; nt "c"; t "END" ] ];
            rule "a" [ [ t "X" ]; [ t "X"; t "X" ] ];
            rule "c"
              [
                [ t "X"; t "Q" ]; [ t "X"; t "Q"; t "W"; t "W" ]; [ t "Q"; t "Y" ];
              ];
          ])
       ~tokens:[ "GO"; "END"; "X"; "Q"; "W"; "Y" ]
       [
         ("GO X X Q Y END", true);
         ("GO X X Q END", true);
         ("GO X X Q W W END", true);
         ("GO X Q Y END", true);
         ("GO X X Q Y Y END", false);
         ("GO X X Q W END", false);
         ("GO X X X END", false);
       ])

(* Strict runs on the VM, inside a running VM. [x] is ambiguous on
   (A, P), so the statement's VM run takes [x]'s first end (A) at an FB
   and keeps the second (A P) as a live choice. [y] is ambiguous on
   (P, P) too, and the oracle derives it by running the strict subtree [d]
   on the VM's second arena, 101 frames and over 300 CST slots deep (past
   the arena's initial 128 frame ints and 256 slots). From the first end
   that run fails on the last group of three P; backtracking into [x]'s
   choice must then resume the outer run's own frames and CST slots,
   intact, and the second run from the second end accepts. *)
let test_strict_runs_inside_a_live_choice () =
  let open Grammar.Builder in
  let groups = String.concat " " (List.init 300 (fun _ -> "P")) in
  ignore
    (check_hand_built ~no_rerun:true
       (grammar ~start:"s"
          [
            rule "s" [ [ t "GO"; nt "w"; t "END" ] ];
            rule "w" [ [ nt "x"; nt "y"; t "Q" ] ];
            rule "x" [ [ t "A" ]; [ t "A"; t "P" ] ];
            rule "y" [ [ nt "d"; t "Z" ]; [ nt "d"; t "W" ] ];
            rule "d" [ [ t "P"; t "P"; t "P"; nt "d" ]; [ t "E" ] ];
          ])
       ~tokens:[ "GO"; "END"; "Q"; "A"; "P"; "Z"; "W"; "E" ]
       [
         (Printf.sprintf "GO A P %s E Z Q END" groups, true);
         (Printf.sprintf "GO A P %s E W Q END" groups, true);
         (Printf.sprintf "GO A %s E Z Q END" groups, true);
         (Printf.sprintf "GO A P %s E Q END" groups, false);
         (Printf.sprintf "GO A P P %s E Z Q END" groups, false);
       ])

(* A strict run gives up at a [-3] entry however deep it meets one. [c]'s
   rule-level choice is ambiguous on (X, Y), two CALL frames inside the
   strict run of [a]; [s] commits nowhere, so the oracle derives it and
   runs [a] strictly. Every (X, Y) statement must be enumerated instead:
   [a], then [b], then [c] fall back to the memoized engine. *)
let test_strict_run_gives_up_deep () =
  let open Grammar.Builder in
  ignore
    (check_hand_built ~no_rerun:true
       (grammar ~start:"s"
          [
            rule "s" [ [ nt "a"; t "D" ]; [ nt "a"; t "D"; t "D" ] ];
            rule "a" [ [ t "L"; nt "b"; t "R" ] ];
            rule "b" [ [ t "M"; nt "c" ] ];
            rule "c" [ [ t "X"; t "Y" ]; [ t "X"; t "Y"; t "Y" ]; [ t "Z" ] ];
          ])
       ~tokens:[ "D"; "L"; "R"; "M"; "X"; "Y"; "Z" ]
       [
         ("L M Z R D", true);
         ("L M X Y R D", true);
         ("L M X Y Y R D", true);
         ("L M X Y Y R D D", true);
         ("L M X R D", false);
         ("L M X Y Y Y R D", false);
         ("L M Z R", false);
       ])

(* An optional phrase inside a strict subtree whose lookahead selects
   neither entering nor skipping it ([-1]) fails the strict run, as it
   fails the memoized engine. (The committed loop the VM replaced skipped
   the phrase there.) No parse can go on from such a token, so statements
   keep their outcome and their error. *)
let test_strict_run_fails_at_no_branch () =
  let open Grammar.Builder in
  ignore
    (check_hand_built ~no_rerun:true
       (grammar ~start:"s"
          [
            rule "s" [ [ nt "a"; t "D" ]; [ nt "a"; t "D"; t "D" ] ];
            rule "a" [ [ t "L"; t "L"; opt [ t "M" ] ] ];
          ])
       ~tokens:[ "D"; "L"; "M"; "Q" ]
       [
         ("L L D", true);
         ("L L M D", true);
         ("L L D D", true);
         ("L L M D D", true);
         ("L L Q", false);
         ("L L Q D", false);
         ("L L M Q", false);
         ("L L M M D", false);
       ])

let suite =
  List.concat_map
    (fun (d : Dialects.Dialect.t) ->
      let name = d.Dialects.Dialect.name in
      [
        Alcotest.test_case
          (Printf.sprintf
             "%s: committed = vm = memoized = reference (corpus + sampled)"
             name)
          `Quick
          (test_three_way_agreement name);
        Alcotest.test_case
          (Printf.sprintf
             "%s: partial choice points agree across engines, both sides"
             name)
          `Quick (test_partial_points name);
        Alcotest.test_case
          (Printf.sprintf "%s: left-factoring preserves CSTs and positions"
             name)
          `Quick
          (test_factoring_preserves name);
        Alcotest.test_case
          (Printf.sprintf "%s: inlined grammar agrees across engines" name)
          `Quick
          (test_inlined_agreement name);
      ])
    Dialects.Dialect.all
  @ [
      Alcotest.test_case "unstamped tokens are re-interned" `Quick
        test_reinterning_boundary;
      Alcotest.test_case "k=2-resolvable grammar classifies committed" `Quick
        test_k2_commits;
      Alcotest.test_case "ambiguous grammar falls back to backtracking" `Quick
        test_ambiguous_falls_back;
      Alcotest.test_case "vm backtracks across fallback choice points" `Quick
        test_vm_choice_backtracking;
      Alcotest.test_case
        "partial choice point commits on one lookahead, backtracks on another"
        `Quick test_partial_point_commits_and_backtracks;
    ]
  @ List.map
      (fun name ->
        Alcotest.test_case
          (Printf.sprintf "%s: forced derivation tails agree across engines"
             name)
          `Quick (test_forced_tails name))
      [ "full"; "analytics" ]
  @ [
      Alcotest.test_case "lazy derivation tails: forced, and found empty"
        `Quick test_lazy_stream_tails;
      Alcotest.test_case "uncompiled start rules boot through the fallback"
        `Quick test_uncompiled_start_rule;
      Alcotest.test_case
        "strict runs grow their own arena inside a live fallback choice"
        `Quick test_strict_runs_inside_a_live_choice;
      Alcotest.test_case
        "a strict run meeting an ambiguous entry deep inside falls back"
        `Quick test_strict_run_gives_up_deep;
      Alcotest.test_case
        "an optional phrase selecting no branch fails the strict run"
        `Quick test_strict_run_fails_at_no_branch;
      Alcotest.test_case
        "full: INSERTs straddling token-view chunk edges agree across engines"
        `Quick test_chunk_edges;
    ]

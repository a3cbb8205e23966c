(* Tests for the generated scanners. *)

open Lexing_gen
open Def_tokens

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Local list view over the array API (the deprecated [Scanner.scan] list
   entry point is gone). *)
let scan scanner input =
  Result.map Array.to_list (Scanner.scan_tokens scanner input)

let kinds scanner input =
  match scan scanner input with
  | Ok tokens -> List.map (fun (t : Token.t) -> t.kind) tokens
  | Error e -> Alcotest.failf "lex error: %a" Scanner.pp_error e

let texts scanner input =
  match scan scanner input with
  | Ok tokens -> List.map (fun (t : Token.t) -> t.text) tokens
  | Error e -> Alcotest.failf "lex error: %a" Scanner.pp_error e

let basic = Scanner.create basic_set

let test_keywords_case_insensitive () =
  Alcotest.(check (list string)) "kinds"
    [ "SELECT"; "IDENT"; "FROM"; "IDENT"; "EOF" ]
    (kinds basic "select a FROM t");
  Alcotest.(check (list string)) "mixed case"
    [ "SELECT"; "IDENT"; "FROM"; "IDENT"; "EOF" ]
    (kinds basic "SeLeCt a fRoM t")

let test_keyword_spelling_preserved () =
  Alcotest.(check (list string)) "texts keep source spelling"
    [ "sElEcT"; "x"; "" ]
    (texts basic "sElEcT x")

let test_unknown_keyword_is_identifier () =
  (* WINDOW is not in the basic token set: it scans as a plain identifier —
     keywords are features. *)
  Alcotest.(check (list string)) "window is an identifier"
    [ "IDENT"; "EOF" ]
    (kinds basic "window")

let test_punct_longest_match () =
  Alcotest.(check (list string)) "<= is one token"
    [ "IDENT"; "LESS_EQ"; "UNSIGNED_INTEGER"; "EOF" ]
    (kinds basic "a <= 1");
  Alcotest.(check (list string)) "< then ="
    [ "IDENT"; "LESS"; "EQUALS"; "UNSIGNED_INTEGER"; "EOF" ]
    (kinds basic "a < = 1")

let test_concat_operator () =
  Alcotest.(check (list string)) "||"
    [ "IDENT"; "CONCAT"; "IDENT"; "EOF" ]
    (kinds basic "a || b")

let test_numbers () =
  Alcotest.(check (list string)) "integer vs decimal"
    [ "UNSIGNED_INTEGER"; "DECIMAL_LITERAL"; "DECIMAL_LITERAL"; "DECIMAL_LITERAL"; "EOF" ]
    (kinds basic "42 3.25 1e6 2.5E-3");
  check_string "decimal text" "3.25" (List.nth (texts basic "3.25") 0)

let test_leading_dot_decimal () =
  Alcotest.(check (list string)) "leading dot"
    [ "DECIMAL_LITERAL"; "EOF" ]
    (kinds basic ".5");
  check_string "text" ".5" (List.nth (texts basic ".5") 0)

let test_integer_then_period () =
  (* "1." without a following digit: integer, then punctuation. *)
  Alcotest.(check (list string)) "no accidental decimal"
    [ "UNSIGNED_INTEGER"; "PERIOD"; "IDENT"; "EOF" ]
    (kinds basic "1.x")

let test_string_literals () =
  check_string "simple" "abc" (List.nth (texts basic "'abc'") 0);
  check_string "escaped quote" "it's" (List.nth (texts basic "'it''s'") 0);
  check_string "empty" "" (List.nth (texts basic "''") 0)

let test_unterminated_string () =
  match scan basic "'oops" with
  | Error e -> check_bool "mentions string" true
                 (Astring_contains.contains e.Scanner.message "string")
  | Ok _ -> Alcotest.fail "unterminated string must fail"

let test_quoted_identifier () =
  Alcotest.(check (list string)) "kind" [ "QUOTED_IDENT"; "EOF" ]
    (kinds basic "\"Order Total\"");
  check_string "text unquoted" "Order Total" (List.nth (texts basic "\"Order Total\"") 0)

let test_comments_skipped () =
  Alcotest.(check (list string)) "line comment"
    [ "SELECT"; "IDENT"; "EOF" ]
    (kinds basic "SELECT a -- trailing comment");
  Alcotest.(check (list string)) "block comment"
    [ "SELECT"; "IDENT"; "EOF" ]
    (kinds basic "SELECT /* inline\n comment */ a")

let test_unterminated_block_comment () =
  check_bool "error" true (Result.is_error (scan basic "SELECT /* oops"))

let test_positions () =
  match scan basic "SELECT\n  a" with
  | Error _ -> Alcotest.fail "scan"
  | Ok tokens ->
    let a = List.nth tokens 1 in
    check_int "line" 2 a.Token.pos.Token.line;
    check_int "column" 3 a.Token.pos.Token.column;
    check_int "offset" 9 a.Token.pos.Token.offset

let test_unexpected_character () =
  match scan basic "a ? b" with
  | Error e -> check_int "at the right column" 3 e.Scanner.pos.Token.column
  | Ok _ -> Alcotest.fail "? is not a token"

let test_disabled_classes () =
  (* A scanner without a string-literal class rejects strings. *)
  let tiny = Scanner.create [ ("IDENT", Spec.Class Spec.Identifier) ] in
  check_bool "strings rejected" true (Result.is_error (scan tiny "'x'"));
  check_bool "numbers rejected" true (Result.is_error (scan tiny "42"));
  check_bool "identifiers fine" true (Result.is_ok (scan tiny "abc"))

let test_counts () =
  check_bool "keyword count" true (Scanner.keyword_count basic >= 2);
  check_bool "punct count" true (Scanner.punct_count basic >= 5)

let test_eof_always_last () =
  match scan basic "" with
  | Ok [ eof ] -> check_string "eof kind" "EOF" eof.Token.kind
  | _ -> Alcotest.fail "empty input yields exactly EOF"

let test_underscored_keyword () =
  let s =
    Scanner.create
      (("CURRENT_DATE", Spec.Keyword "CURRENT_DATE") :: basic_set)
  in
  Alcotest.(check (list string)) "single token" [ "CURRENT_DATE"; "EOF" ]
    (kinds s "current_date")

(* ------------------------------------------------------------------ *)
(* Struct-of-arrays stream                                            *)
(* ------------------------------------------------------------------ *)

let token_testable : Token.t Alcotest.testable =
  Alcotest.testable
    (fun ppf (t : Token.t) ->
      Fmt.pf ppf "%s(%S)@%d:%d:%d" t.kind t.text t.pos.Token.line
        t.pos.Token.column t.pos.Token.offset)
    ( = )

let soa_inputs =
  [
    "";
    "select a FROM t";
    "SELECT\n  a, b FROM \"Order Total\" WHERE x <= 1.5e-3";
    "'it''s' .5 42 /* block\ncomment */ a -- tail";
    "a\n\n\nb\n";
    "SeLeCt current_date'x''y''z'";
  ]

let test_soa_matches_scan_tokens () =
  List.iter
    (fun input ->
      let expected =
        match Scanner.scan_tokens basic input with
        | Ok t -> t
        | Error e -> Alcotest.failf "scan_tokens: %a" Scanner.pp_error e
      in
      (* Full materialization agrees... *)
      (match Scanner.scan_soa basic input with
      | Error e -> Alcotest.failf "scan_soa: %a" Scanner.pp_error e
      | Ok soa ->
        Alcotest.(check (array token_testable))
          (Printf.sprintf "tokens_of_soa %S" input)
          expected
          (Scanner.tokens_of_soa basic soa);
        check_int "count" (Array.length expected - 1) (Scanner.soa_count soa));
      (* ...and so does random-access materialization (binary-searched
         positions instead of the sequential newline cursor). *)
      match Scanner.scan_soa basic input with
      | Error _ -> assert false
      | Ok soa ->
        Array.iteri
          (fun i exp ->
            Alcotest.(check token_testable)
              (Printf.sprintf "token_of_soa %S #%d" input i)
              exp
              (Scanner.token_of_soa basic soa i))
          expected)
    soa_inputs

let test_soa_errors_match () =
  List.iter
    (fun input ->
      match Scanner.scan_tokens basic input, Scanner.scan_soa basic input with
      | Error a, Error b ->
        check_string "message" a.Scanner.message b.Scanner.message;
        check_int "line" a.Scanner.pos.Token.line b.Scanner.pos.Token.line;
        check_int "column" a.Scanner.pos.Token.column b.Scanner.pos.Token.column;
        check_int "offset" a.Scanner.pos.Token.offset b.Scanner.pos.Token.offset
      | Ok _, Ok _ -> Alcotest.failf "expected %S to fail" input
      | _ -> Alcotest.failf "engines disagree on %S" input)
    [ "'oops"; "a ? b"; "SELECT /* oops"; "a\nb\n$"; "/*\n\n\noops" ]

let test_soa_arena_reuse () =
  (* The arena is reused: a second scan invalidates the first stream, and
     repeated scans agree with themselves. *)
  let first =
    match Scanner.scan_soa basic "SELECT a FROM t" with
    | Ok soa -> Scanner.tokens_of_soa basic soa
    | Error _ -> Alcotest.fail "scan 1"
  in
  (match Scanner.scan_soa basic "'string' 1 2 3" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "scan 2");
  match Scanner.scan_soa basic "SELECT a FROM t" with
  | Ok soa ->
    Alcotest.(check (array token_testable))
      "rescan agrees" first
      (Scanner.tokens_of_soa basic soa)
  | Error _ -> Alcotest.fail "scan 3"

(* [n] tokens cycling through identifiers, string literals and quoted
   identifiers with doubled quotes (one string spanning a line break), and
   numbers, separated by spaces, line breaks and a multi-line block
   comment, so that lines and columns vary along the stream. *)
let long_input n =
  let b = Buffer.create (8 * n) in
  for i = 0 to n - 1 do
    if i > 0 then
      Buffer.add_string b
        (if i mod 37 = 0 then " /* a\ncomment */ "
         else if i mod 5 = 0 then "\n"
         else if i mod 11 = 0 then "\n\n  "
         else " ");
    match i mod 6 with
    | 0 -> Printf.bprintf b "c%d" i
    | 1 -> Printf.bprintf b "'it''s %d'" i
    | 2 -> Printf.bprintf b "\"Q\"\"%d\"" i
    | 3 -> Printf.bprintf b "%d" i
    | 4 -> Printf.bprintf b "'two\nlines %d'" i
    | _ -> Printf.bprintf b "%d.5" i
  done;
  Buffer.contents b

(* [token_of_soa], which materializes a parse's leaves, agrees with the
   sequential [tokens_of_soa] on every token of long multi-line streams of
   254..258 and 510..514 tokens (EOF included), read forward and
   backward. *)
let test_token_of_soa_matches_tokens_of_soa () =
  List.iter
    (fun len ->
      let input = long_input (len - 1) in
      match Scanner.scan_soa basic input with
      | Error e -> Alcotest.failf "scan_soa: %a" Scanner.pp_error e
      | Ok soa ->
        check_int "count" (len - 1) (Scanner.soa_count soa);
        let all = Scanner.tokens_of_soa basic soa in
        check_int "length" len (Array.length all);
        List.iter
          (fun i ->
            let msg = Printf.sprintf "%d tokens: #%d" len i in
            Alcotest.(check token_testable) msg all.(i)
              (Scanner.token_of_soa basic soa i);
            check_string msg all.(i).Token.kind (Scanner.kind_name basic soa i))
          (List.init len (fun i -> len - 1 - i) @ List.init len Fun.id);
        check_string "past EOF" Token.eof_kind (Scanner.kind_name basic soa len);
        check_string "doubled quotes unescaped" "it's 1" all.(1).Token.text;
        check_string "quoted identifier unescaped" "Q\"2" all.(2).Token.text;
        check_bool "multi-line" true (all.(len - 1).Token.pos.Token.line > 100))
    [ 254; 255; 256; 257; 258; 510; 511; 512; 513; 514 ]

let suite =
  [
    Alcotest.test_case "keywords case-insensitive" `Quick test_keywords_case_insensitive;
    Alcotest.test_case "keyword spelling preserved" `Quick test_keyword_spelling_preserved;
    Alcotest.test_case "unknown keyword is identifier" `Quick
      test_unknown_keyword_is_identifier;
    Alcotest.test_case "punct longest match" `Quick test_punct_longest_match;
    Alcotest.test_case "concat operator" `Quick test_concat_operator;
    Alcotest.test_case "numbers" `Quick test_numbers;
    Alcotest.test_case "integer then period" `Quick test_integer_then_period;
    Alcotest.test_case "leading dot decimal" `Quick test_leading_dot_decimal;
    Alcotest.test_case "string literals" `Quick test_string_literals;
    Alcotest.test_case "unterminated string" `Quick test_unterminated_string;
    Alcotest.test_case "quoted identifier" `Quick test_quoted_identifier;
    Alcotest.test_case "comments skipped" `Quick test_comments_skipped;
    Alcotest.test_case "unterminated block comment" `Quick
      test_unterminated_block_comment;
    Alcotest.test_case "positions" `Quick test_positions;
    Alcotest.test_case "unexpected character" `Quick test_unexpected_character;
    Alcotest.test_case "disabled classes" `Quick test_disabled_classes;
    Alcotest.test_case "scanner size counts" `Quick test_counts;
    Alcotest.test_case "EOF always last" `Quick test_eof_always_last;
    Alcotest.test_case "underscored keyword" `Quick test_underscored_keyword;
    Alcotest.test_case "SoA stream matches scan_tokens" `Quick
      test_soa_matches_scan_tokens;
    Alcotest.test_case "SoA errors match" `Quick test_soa_errors_match;
    Alcotest.test_case "SoA arena reuse" `Quick test_soa_arena_reuse;
    Alcotest.test_case "token_of_soa = tokens_of_soa on long streams"
      `Quick test_token_of_soa_matches_tokens_of_soa;
  ]

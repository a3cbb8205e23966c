(* End-to-end tests of the sqlpl command-line interface, driving the built
   binary. Skipped silently if the binary is not where dune puts it
   (e.g. when the test executable is run outside dune). *)

let binary =
  let candidates = [ "../bin/sqlpl.exe"; "_build/default/bin/sqlpl.exe" ] in
  List.find_opt Sys.file_exists candidates

let run_cli ?stdin_text args =
  match binary with
  | None -> None
  | Some bin ->
    let out_file = Filename.temp_file "sqlpl_cli" ".out" in
    let stdin_file =
      match stdin_text with
      | None -> None
      | Some text ->
        let f = Filename.temp_file "sqlpl_cli" ".in" in
        Out_channel.with_open_text f (fun oc -> output_string oc text);
        Some f
    in
    let redirect =
      match stdin_file with
      | None -> ""
      | Some f -> Printf.sprintf " < %s" (Filename.quote f)
    in
    let cmd =
      Printf.sprintf "%s %s > %s 2>&1%s" (Filename.quote bin)
        (String.concat " " (List.map Filename.quote args))
        (Filename.quote out_file) redirect
    in
    let status = Sys.command cmd in
    let output = In_channel.with_open_text out_file In_channel.input_all in
    Sys.remove out_file;
    Option.iter Sys.remove stdin_file;
    Some (status, output)

let check_bool = Alcotest.(check bool)
let contains = Astring_contains.contains

let expect ?stdin_text ~status ~needles args () =
  match run_cli ?stdin_text args with
  | None -> () (* binary unavailable; skip *)
  | Some (actual_status, output) ->
    Alcotest.(check int)
      (Printf.sprintf "exit status of %s" (String.concat " " args))
      status actual_status;
    List.iter
      (fun needle ->
        check_bool
          (Printf.sprintf "output of %s contains %S" (String.concat " " args) needle)
          true (contains output needle))
      needles

let test_dialects = expect ~status:0 ~needles:[ "tinysql"; "SCQL" ] [ "dialects" ]

let test_features_stats =
  expect ~status:0
    ~needles:[ "feature diagrams:"; "distinct features:" ]
    [ "features"; "--stats" ]

let test_diagram =
  expect ~status:0
    ~needles:[ "Query Specification"; "Set Quantifier"; "Select Sublist [1..*]" ]
    [ "diagram"; "Query Specification" ]

let test_diagram_selected =
  expect ~status:0
    ~needles:[ "[x] * From"; "[ ] o Joined Table" ]
    [ "diagram"; "--selected"; "tinysql"; "Table Expression" ]

let test_diagram_missing =
  expect ~status:124 ~needles:[ "no diagram named" ] [ "diagram"; "Nonsense" ]

let test_validate_dialect =
  expect ~status:0 ~needles:[ "valid" ] [ "validate"; "-d"; "tinysql" ]

let test_validate_violation =
  expect ~status:124
    ~needles:[ "OR group"; "violation" ]
    [ "validate"; "-f"; "Where" ]

let test_grammar =
  expect ~status:0
    ~needles:[ "<query_specification>"; "rules," ]
    [ "grammar"; "-d"; "minimal" ]

let test_parse_ast =
  expect ~status:0
    ~needles:[ "SELECT nodeid, AVG(temp) FROM sensors GROUP BY nodeid EPOCH DURATION 1024" ]
    [ "parse"; "-d"; "tinysql"; "--ast";
      "SELECT nodeid, AVG(temp) FROM sensors GROUP BY nodeid EPOCH DURATION 1024" ]

let test_parse_reject =
  (* In the minimal dialect the comma is not even a token: the rejection is
     lexical. A parse-level rejection needs known tokens in a bad order. *)
  expect ~status:124 ~needles:[ "lexical error" ]
    [ "parse"; "-d"; "minimal"; "SELECT a, b FROM t" ]

let test_parse_reject_syntactic =
  expect ~status:124 ~needles:[ "parse error" ]
    [ "parse"; "-d"; "minimal"; "SELECT FROM t" ]

(* [parse] prints a statement's tree exactly as [Cst.pp] lays it out. *)
let test_parse_cst () =
  let g =
    match Dialects.Dialect.find "full" with
    | None -> Alcotest.fail "no full dialect"
    | Some d -> (
      match Core.generate_dialect d with
      | Ok g -> g
      | Error e -> Alcotest.failf "generate full: %a" Core.pp_error e)
  in
  List.iter
    (fun sql ->
      match (run_cli [ "parse"; "-d"; "full"; sql ], Core.parse_cst g sql) with
      | None, _ -> ()
      | Some (status, output), Ok cst ->
        Alcotest.(check int) "exit status" 0 status;
        Alcotest.(check string)
          (Printf.sprintf "parse %S prints Cst.pp" sql)
          (Fmt.str "%a\n" Parser_gen.Cst.pp cst)
          output
      | Some _, Error e -> Alcotest.failf "parse %S: %a" sql Core.pp_error e)
    [
      "SELECT a FROM t";
      "SELECT a, b FROM t WHERE a = 'it''s' AND b IN (1, 2, 3) ORDER BY a";
    ]

let test_report =
  expect ~status:0
    ~needles:[ "grammar report: scql"; "statement classes" ]
    [ "report"; "-d"; "scql" ]

(* The PEG source emitter is deleted: [emit] is no command. *)
let test_emit =
  expect ~status:124 ~needles:[ "unknown command 'emit'" ]
    [ "emit"; "-d"; "minimal" ]

let test_run_script =
  expect ~status:0
    ~stdin_text:
      "CREATE TABLE t (a INTEGER);\nINSERT INTO t (a) VALUES (1), (2);\nSELECT COUNT(*) FROM t;"
    ~needles:[ "table t created"; "2 row(s) affected"; "(1 rows)" ]
    [ "run"; "-d"; "full" ]

let test_lint_minimal =
  expect ~status:0
    ~needles:[ "lint minimal"; "0 error(s)" ]
    [ "lint"; "minimal" ]

let test_lint_full =
  expect ~status:0
    ~needles:[ "lint full"; "0 error(s)" ]
    [ "lint"; "full" ]

let test_lint_json =
  expect ~status:0
    ~needles:[ "\"code\":"; "\"severity\":"; "\"witness\":" ]
    [ "lint"; "full"; "--format=json" ]

(* [args d] for every shipped dialect [d], byte for byte against the
   output checked in under [test/golden/] as [file d]: a change in any
   line of it fails here, not only a change in the exit status. *)
let check_golden ~args ~file () =
  List.iter
    (fun (d : Dialects.Dialect.t) ->
      let name = d.Dialects.Dialect.name in
      let cmd = String.concat " " (args name) in
      match run_cli (args name) with
      | None -> () (* binary unavailable; skip *)
      | Some (status, output) ->
        let golden =
          In_channel.with_open_bin
            (Filename.concat "golden" (file name))
            In_channel.input_all
        in
        Alcotest.(check int) (Printf.sprintf "%s exit status" cmd) 0 status;
        Alcotest.(check string)
          (Printf.sprintf "%s = golden/%s" cmd (file name))
          golden output)
    Dialects.Dialect.all

(* Every witness, message and severity of the lint report is pinned. *)
let test_lint_golden =
  check_golden
    ~args:(fun d -> [ "lint"; d; "--format"; "json" ])
    ~file:(Printf.sprintf "lint_%s.jsonl")

(* The grammar report, conflict list and alternative bodies included. *)
let test_report_golden =
  check_golden
    ~args:(fun d -> [ "report"; "-d"; d ])
    ~file:(Printf.sprintf "report_%s.txt")

let test_lint_unknown_dialect =
  expect ~status:124 ~needles:[ "unknown dialect" ] [ "lint"; "nonsense" ]

let test_diff =
  expect ~status:0
    ~needles:[ "commonality:"; "only in tinysql"; "grammar size:" ]
    [ "diff"; "tinysql"; "scql" ]

(* Every cache miss is instantiated from the family artifact: six
   dialects, six instantiations. *)
let test_cache_stats =
  expect ~status:0
    ~needles:[ "full"; "hits 6, misses 6"; "family:"; "6 instantiations" ]
    [ "cache"; "stats" ]

let test_family_flags_removed () =
  List.iter
    (fun args ->
      expect ~status:124 ~needles:[ "unknown option '--family'" ] args ())
    [ [ "serve"; "--family" ]; [ "cache"; "stats"; "--family" ] ]

(* One engine and one wire encoding: the options that picked among parse
   engines and between binary and JSON frames are gone from every command
   that had them. *)
let test_engine_and_json_flags_removed () =
  List.iter
    (fun (flag, args) ->
      expect ~status:124 ~needles:[ Printf.sprintf "unknown option '%s'" flag ]
        args ())
    [
      ("--engine", [ "parse"; "-d"; "full"; "--engine"; "vm"; "SELECT a FROM t" ]);
      ( "--engine",
        [ "client"; "-d"; "full"; "--engine"; "fused"; "SELECT a FROM t" ] );
      ("--json", [ "client"; "-d"; "full"; "--json"; "SELECT a FROM t" ]);
    ]

(* The shipped daemon end to end: [sqlpl serve] on a Unix socket as a
   child process, two [sqlpl client] runs against it (a tree, then
   recognition only), then SIGTERM, after which the daemon reports the two
   connections it served. The child is always reaped. *)
let test_serve_and_client () =
  match binary with
  | None -> ()
  | Some bin ->
    let dir = Filename.temp_dir "sqlpl_serve" "" in
    let sock = Filename.concat dir "s" and log = Filename.concat dir "serve.out" in
    let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
    let pid =
      Unix.create_process bin [| bin; "serve"; "--unix"; sock |] Unix.stdin out out
    in
    Unix.close out;
    let reaped = ref false in
    let reap () =
      if not !reaped then begin
        reaped := true;
        ignore (Unix.waitpid [] pid)
      end
    in
    Fun.protect
      ~finally:(fun () ->
        if not !reaped then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap ()
        end;
        List.iter
          (fun f -> try Sys.remove f with Sys_error _ -> ())
          [ sock; log ];
        try Sys.rmdir dir with Sys_error _ -> ())
      (fun () ->
        let deadline = Unix.gettimeofday () +. 2.0 in
        while (not (Sys.file_exists sock)) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.01
        done;
        check_bool "the daemon's socket exists" true (Sys.file_exists sock);
        let client extra =
          match
            run_cli
              ([ "client"; "--unix"; sock; "-d"; "tinysql" ]
              @ extra @ [ "SELECT nodeid FROM sensors" ])
          with
          | Some (0, output) -> output
          | Some (status, output) ->
            Alcotest.failf "client %s exited %d:@.%s" (String.concat " " extra)
              status output
          | None -> Alcotest.fail "binary vanished"
        in
        let lines output = String.split_on_char '\n' output in
        List.iter
          (fun (extra, tree) ->
            let output = client extra in
            List.iter
              (fun needle ->
                check_bool
                  (Printf.sprintf "client %s prints %S" (String.concat " " extra)
                     needle)
                  true (contains output needle))
              [ "#0 ok"; "-- 1 statement(s)" ];
            check_bool
              (Printf.sprintf "client %s prints a tree: %b"
                 (String.concat " " extra) tree)
              tree
              (List.exists (String.starts_with ~prefix:"(") (lines output)))
          [ ([], true); ([ "--recognize" ], false) ];
        Unix.kill pid Sys.sigterm;
        reap ();
        let served = In_channel.with_open_text log In_channel.input_all in
        check_bool
          (Printf.sprintf "the daemon reports two connections:@.%s" served)
          true
          (contains served "stopped after 2 connection(s)"))

(* The GC's space_overhead is the runtime's own setting
   ([OCAMLRUNPARAM=o=N]); serve has no flag duplicating it. *)
let test_gc_space_overhead_removed =
  expect ~status:124 ~needles:[ "unknown option '--gc-space-overhead'" ]
    [ "serve"; "--gc-space-overhead"; "200" ]

let test_configure_session =
  expect ~status:0
    ~stdin_text:
      "add Where\nfix\nadd Equals\ntry SELECT a FROM t WHERE a = b\ntry SELECT a, b FROM t\nquit\n"
    ~needles:
      [
        "pick at least one of";
        "accepted: SELECT a FROM t WHERE a = b";
        "rejected:";
      ]
    [ "configure" ]

let test_config_file_roundtrip () =
  match binary with
  | None -> ()
  | Some _ ->
    let file = Filename.temp_file "sqlpl_features" ".txt" in
    (* Save a selection via the configurator, then use it with validate. *)
    (match
       run_cli
         ~stdin_text:(Printf.sprintf "add Where\nadd Equals\nsave %s\nquit\n" file)
         [ "configure" ]
     with
     | Some (0, _) -> ()
     | _ -> Alcotest.fail "configure save failed");
    (match run_cli [ "validate"; "-c"; file ] with
     | Some (0, out) -> check_bool "valid from file" true (contains out "valid")
     | _ -> Alcotest.fail "validate from file failed");
    Sys.remove file

(* [s] cut at every occurrence of [sep]. *)
let split_on_string sep s =
  let n = String.length sep and len = String.length s in
  let rec go start i acc =
    if i + n > len then List.rev (String.sub s start (len - start) :: acc)
    else if String.sub s i n = sep then
      go (i + n) (i + n) (String.sub s start (i - start) :: acc)
    else go start (i + 1) acc
  in
  go 0 0 []

(* The configurator's [grammar] prints the product [sqlpl grammar] prints
   for the same saved selection: the EBNF without the trailing
   [-- N rules] summary line. *)
let test_configure_grammar () =
  match binary with
  | None -> ()
  | Some _ ->
    let file = Filename.temp_file "sqlpl_features" ".txt" in
    let session =
      match
        run_cli
          ~stdin_text:
            (Printf.sprintf "add Where\nadd Equals\nsave %s\ngrammar\nquit\n"
               file)
          [ "configure" ]
      with
      | Some (0, out) -> out
      | _ -> Alcotest.fail "configure session failed"
    in
    let body =
      match run_cli [ "grammar"; "-c"; file ] with
      | Some (0, out) -> (
        match List.rev (split_on_string "\n-- " out) with
        | _summary :: (_ :: _ as rev_body) ->
          String.concat "\n-- " (List.rev rev_body)
        | _ -> Alcotest.fail "grammar: no summary line")
      | _ -> Alcotest.fail "grammar -c failed"
    in
    Sys.remove file;
    (* Replies follow each [configure> ] prompt; the one after [save]'s
       reply is [grammar]'s. *)
    let rec after_save = function
      | saved :: reply :: _ when String.starts_with ~prefix:"saved " saved ->
        reply
      | _ :: rest -> after_save rest
      | [] -> Alcotest.fail "configure: no reply after save"
    in
    let printed = after_save (split_on_string "configure> " session) in
    check_bool "grammar is non-empty" true (String.length body > 0);
    Alcotest.(check string) "configure grammar = sqlpl grammar -c" body printed

let suite =
  [
    Alcotest.test_case "dialects" `Quick test_dialects;
    Alcotest.test_case "features --stats" `Quick test_features_stats;
    Alcotest.test_case "diagram" `Quick test_diagram;
    Alcotest.test_case "diagram --selected" `Quick test_diagram_selected;
    Alcotest.test_case "diagram missing" `Quick test_diagram_missing;
    Alcotest.test_case "validate dialect" `Quick test_validate_dialect;
    Alcotest.test_case "validate violation" `Quick test_validate_violation;
    Alcotest.test_case "grammar" `Quick test_grammar;
    Alcotest.test_case "parse --ast" `Quick test_parse_ast;
    Alcotest.test_case "parse reject (lexical)" `Quick test_parse_reject;
    Alcotest.test_case "parse reject (syntactic)" `Quick test_parse_reject_syntactic;
    Alcotest.test_case "parse prints the tree as Cst.pp" `Quick test_parse_cst;
    Alcotest.test_case "report" `Quick test_report;
    Alcotest.test_case "report = golden, six dialects" `Quick
      test_report_golden;
    Alcotest.test_case "emit" `Quick test_emit;
    Alcotest.test_case "run script" `Quick test_run_script;
    Alcotest.test_case "lint minimal" `Quick test_lint_minimal;
    Alcotest.test_case "lint full" `Quick test_lint_full;
    Alcotest.test_case "lint --format=json" `Quick test_lint_json;
    Alcotest.test_case "lint --format json = golden, six dialects" `Quick
      test_lint_golden;
    Alcotest.test_case "lint unknown dialect" `Quick test_lint_unknown_dialect;
    Alcotest.test_case "diff" `Quick test_diff;
    Alcotest.test_case "cache stats" `Quick test_cache_stats;
    Alcotest.test_case "--family flags removed" `Quick
      test_family_flags_removed;
    Alcotest.test_case "--engine and --json flags removed" `Quick
      test_engine_and_json_flags_removed;
    Alcotest.test_case "serve and client end to end over a Unix socket" `Quick
      test_serve_and_client;
    Alcotest.test_case "serve --gc-space-overhead removed" `Quick
      test_gc_space_overhead_removed;
    Alcotest.test_case "configure session" `Quick test_configure_session;
    Alcotest.test_case "config file round-trip" `Quick test_config_file_roundtrip;
    Alcotest.test_case "configure grammar = sqlpl grammar -c" `Quick
      test_configure_grammar;
  ]

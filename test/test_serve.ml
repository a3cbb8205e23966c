(* Fault-injection and determinism tests for the [sqlpl serve] daemon.

   The contract under test: no client behavior — mid-frame disconnects,
   dribbled writes, malformed hellos, hostile length prefixes, poisoned
   statements — takes the daemon down or degrades other connections; every
   fault draws a structured wire error (query, span, expected set attached
   where a statement is involved); and what comes over the wire is
   byte-identical to what {!Service.Session.parse_batch} returns in
   process, under concurrency. *)

module Wire = Service.Wire
module Server = Service.Server
module Client = Service.Client

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let dialect name =
  match Dialects.Dialect.find name with
  | Some d -> d
  | None -> Alcotest.failf "no dialect %s" name

(* A tiny substring check so the suite does not pull in a library for a
   couple of assertions on error messages. *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    if i + n > h then false
    else if String.sub haystack i n = needle then true
    else go (i + 1)
  in
  n = 0 || go 0

(* One warmed cache shared by every server in this suite, so each test is
   not paying for front-end generation again. Only one server runs at a
   time, and each server serializes cache access behind its own lock. *)
let shared_cache = Service.Cache.create ()

let with_server ?workers ?max_frame ?(addr = Wire.Tcp ("127.0.0.1", 0)) f =
  match Server.start ?workers ?max_frame ~cache:shared_cache addr with
  | Error msg -> Alcotest.failf "server start: %s" msg
  | Ok server ->
    Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let connect_exn ~selection server =
  match Client.connect ~selection (Server.address server) with
  | Ok pair -> pair
  | Error e -> Alcotest.failf "connect: %a" Wire.pp_error e

let request_exn ?mode client statements =
  match Client.request ?mode client statements with
  | Ok reply -> reply
  | Error e -> Alcotest.failf "request: %a" Wire.pp_error e

(* The canary: a fresh connection still gets real service. Run after every
   injected fault. *)
let assert_alive server =
  let client, _ok = connect_exn ~selection:(Wire.Dialect "minimal") server in
  (match Client.ping client "still there?" with
  | Ok p -> Alcotest.(check string) "pong echoes" "still there?" p
  | Error e -> Alcotest.failf "ping after fault: %a" Wire.pp_error e);
  let reply = request_exn client [ "SELECT a FROM t" ] in
  check_int "accepted after fault" 1 reply.Wire.stats.Wire.accepted;
  Client.close client

let raw_connect server =
  match Server.address server with
  | Wire.Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    fd
  | Wire.Unix_socket path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd

let write_all fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let wait_for ?(timeout = 5.0) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

(* --- handshake faults -------------------------------------------------- *)

let test_bad_hello () =
  with_server (fun server ->
      (* A well-formed frame that is not a hello. *)
      let fd = raw_connect server in
      write_all fd (Wire.encode (Wire.Ping "knock"));
      let reader = Wire.reader (fun b o l -> Unix.read fd b o l) in
      (match Wire.read_frame reader with
      | Ok (Some (Wire.Error e)) ->
        check_bool "bad_hello" true (e.Wire.code = Wire.Bad_hello)
      | other ->
        Alcotest.failf "expected error frame, got %s"
          (match other with
          | Ok (Some f) -> Fmt.str "%a" Wire.pp_frame f
          | Ok None -> "eof"
          | Error e -> Fmt.str "decode error %a" Wire.pp_error e));
      Unix.close fd;
      (* Bytes that are not a frame at all: unknown tag. *)
      let fd = raw_connect server in
      write_all fd "\000\000\000\002\042X";
      let reader = Wire.reader (fun b o l -> Unix.read fd b o l) in
      (match Wire.read_frame reader with
      | Ok (Some (Wire.Error e)) ->
        check_bool "bad_frame" true (e.Wire.code = Wire.Bad_frame)
      | _ -> Alcotest.fail "expected structured error for garbage hello");
      Unix.close fd;
      assert_alive server)

(* A version-1 hello, as clients before version 2 encoded it (an engine
   byte after the client string), draws a structured bad frame naming the
   version. *)
let test_hello_version_1 () =
  with_server (fun server ->
      let fd = raw_connect server in
      write_all fd
        ("\000\000\000\022\001\001" ^ "\000\000\000\003old" ^ "\000"
        ^ "\000\000\000\000\007minimal");
      let reader = Wire.reader (fun b o l -> Unix.read fd b o l) in
      (match Wire.read_frame reader with
      | Ok (Some (Wire.Error e)) ->
        check_bool "bad_frame" true (e.Wire.code = Wire.Bad_frame);
        Alcotest.(check string) "message" "unsupported hello version 1"
          e.Wire.message
      | _ -> Alcotest.fail "version-1 hello not answered with an error");
      Unix.close fd;
      assert_alive server)

(* The daemon speaks binary frames only. A line of JSON draws one binary
   [Error] frame (its first four bytes read as a length prefix over the
   limit), counted as a wire error, and the close; the next connection is
   served as usual. *)
let test_json_line_draws_binary_error () =
  with_server (fun server ->
      let before = (Server.stats server).Server.wire_errors in
      let fd = raw_connect server in
      write_all fd
        ({|{"frame":"hello","version":1,"client":"old","selection":{"dialect":"minimal"}}|}
        ^ "\n");
      let reader = Wire.reader (fun b o l -> Unix.read fd b o l) in
      (match Wire.read_frame reader with
      | Ok (Some (Wire.Error e)) ->
        check_bool "oversized" true (e.Wire.code = Wire.Oversized)
      | _ -> Alcotest.fail "JSON line not answered with a binary error frame");
      (match Wire.read_frame reader with
      | Ok None -> ()
      | _ -> Alcotest.fail "a second frame after the error");
      Unix.close fd;
      check_bool "one wire error counted" true
        (wait_for (fun () -> (Server.stats server).Server.wire_errors = before + 1));
      assert_alive server;
      check_int "and no other" (before + 1) (Server.stats server).Server.wire_errors)

let test_unknown_dialect_and_digest () =
  with_server (fun server ->
      (match
         Client.connect
           ~selection:(Wire.Dialect "klingon-sql")
           (Server.address server)
       with
      | Ok _ -> Alcotest.fail "unknown dialect accepted"
      | Error e ->
        check_bool "unknown_dialect" true (e.Wire.code = Wire.Unknown_dialect);
        check_bool "names the known dialects" true
          (contains e.Wire.message "minimal"));
      (match
         Client.connect
           ~selection:(Wire.Digest (String.make 32 'f'))
           (Server.address server)
       with
      | Ok _ -> Alcotest.fail "unknown digest accepted"
      | Error e ->
        check_bool "unknown_digest" true (e.Wire.code = Wire.Unknown_digest));
      (* Warming the cache by dialect makes the digest resolvable. *)
      let client, ok = connect_exn ~selection:(Wire.Dialect "minimal") server in
      Client.close client;
      let pinned, ok' =
        connect_exn ~selection:(Wire.Digest ok.Wire.digest) server
      in
      Alcotest.(check string) "digest pins the same front-end" ok.Wire.digest
        ok'.Wire.digest;
      let reply = request_exn pinned [ "SELECT a FROM t" ] in
      check_int "pinned session parses" 1 reply.Wire.stats.Wire.accepted;
      Client.close pinned;
      assert_alive server)

let test_invalid_feature_config () =
  with_server (fun server ->
      match
        Client.connect
          ~selection:(Wire.Features [ "No Such Feature" ])
          (Server.address server)
      with
      | Ok _ -> Alcotest.fail "bogus feature list accepted"
      | Error e ->
        check_bool "invalid_config" true (e.Wire.code = Wire.Invalid_config);
        assert_alive server)

(* --- transport faults --------------------------------------------------- *)

let test_midframe_disconnect () =
  with_server (fun server ->
      let before = (Server.stats server).Server.wire_errors in
      let fd = raw_connect server in
      (* A length prefix promising 100 bytes, then silence. *)
      write_all fd "\000\000\000\100\001abc";
      Unix.close fd;
      check_bool "fault counted as wire error" true
        (wait_for (fun () ->
             (Server.stats server).Server.wire_errors > before));
      assert_alive server)

let test_slow_dribbled_writes () =
  with_server (fun server ->
      let fd = raw_connect server in
      let dribble s =
        String.iter
          (fun c ->
            write_all fd (String.make 1 c);
            Thread.delay 0.001)
          s
      in
      let reader = Wire.reader (fun b o l -> Unix.read fd b o l) in
      dribble
        (Wire.encode
           (Wire.Hello
              { Wire.client = "dribbler"; selection = Wire.Dialect "minimal" }));
      (match Wire.read_frame reader with
      | Ok (Some (Wire.Hello_ok _)) -> ()
      | _ -> Alcotest.fail "dribbled hello not answered");
      dribble
        (Wire.encode
           (Wire.Request
              {
                Wire.id = 1;
                mode = Wire.Cst;
                statements = [ "SELECT a FROM t"; "SELECT a FROM" ];
              }));
      (match Wire.read_frame reader with
      | Ok (Some (Wire.Reply r)) ->
        check_int "dribbled request answered in full" 2
          r.Wire.stats.Wire.statements
      | _ -> Alcotest.fail "dribbled request not answered");
      Unix.close fd;
      assert_alive server)

let test_oversized_payload_rejected () =
  with_server ~max_frame:1024 (fun server ->
      let client, _ok = connect_exn ~selection:(Wire.Dialect "minimal") server in
      (match Client.request client [ String.make 4096 'x' ] with
      | Ok _ -> Alcotest.fail "oversized request accepted"
      | Error e ->
        check_bool "oversized" true (e.Wire.code = Wire.Oversized));
      Client.close client;
      (* A hostile length prefix is refused from the header alone. *)
      let fd = raw_connect server in
      write_all fd "\000\255\255\255";
      let reader = Wire.reader (fun b o l -> Unix.read fd b o l) in
      (match Wire.read_frame reader with
      | Ok (Some (Wire.Error e)) ->
        check_bool "oversized prefix" true (e.Wire.code = Wire.Oversized)
      | _ -> Alcotest.fail "hostile prefix not answered with an error");
      Unix.close fd;
      assert_alive server)

(* --- in-batch faults ---------------------------------------------------- *)

let test_poisoned_statement_isolated () =
  with_server (fun server ->
      let client, _ok = connect_exn ~selection:(Wire.Dialect "minimal") server in
      let poisoned = "SELECT a FROM t GROUP BY a" in
      let reply =
        request_exn client [ "SELECT a FROM t"; poisoned; "SELECT b FROM u" ]
      in
      (match reply.Wire.items with
      | [ Wire.Accepted _; Wire.Rejected e; Wire.Accepted _ ] ->
        check_bool "parse error" true (e.Wire.code = Wire.Parse_error);
        Alcotest.(check (option string))
          "query attached" (Some poisoned) e.Wire.query;
        check_bool "span attached" true (e.Wire.span <> None);
        check_bool "expected set decoded" true (e.Wire.expected <> [])
      | items ->
        Alcotest.failf "unexpected items: %s"
          (String.concat "; "
             (List.map
                (function
                  | Wire.Accepted _ -> "accepted"
                  | Wire.Rejected _ -> "rejected")
                items)));
      check_int "stats count the split" 2 reply.Wire.stats.Wire.accepted;
      check_int "stats count the split" 1 reply.Wire.stats.Wire.rejected;
      (* The connection is not poisoned: the next request is served. *)
      let reply2 = request_exn client [ "SELECT a FROM t" ] in
      check_int "connection survives a rejected batch" 1
        reply2.Wire.stats.Wire.accepted;
      (* A lexical fault carries its span too. *)
      let reply3 = request_exn client [ "SELECT \x01 FROM t" ] in
      (match reply3.Wire.items with
      | [ Wire.Rejected e ] ->
        check_bool "lex error" true (e.Wire.code = Wire.Lex_error);
        check_bool "lex span attached" true (e.Wire.span <> None)
      | _ -> Alcotest.fail "lexical poison not isolated");
      Client.close client;
      assert_alive server)

(* --- modes --------------------------------------------------------------- *)

let test_modes () =
  with_server (fun server ->
      let stmts =
        [ "SELECT a FROM t"; "SELECT a FROM";
          "SELECT DISTINCT a FROM t WHERE x = y" ]
      in
      let binary, _ = connect_exn ~selection:(Wire.Dialect "minimal") server in
      let b_cst = request_exn ~mode:Wire.Cst binary stmts in
      (match b_cst.Wire.items with
      | Wire.Accepted { cst = Some _; _ } :: _ -> ()
      | _ -> Alcotest.fail "cst mode must render the tree");
      (* The tree text is pinned to [Cst.pp] of the library's own parse:
         the daemon renders rows, and [Cst.pp] is their oracle. *)
      let g =
        match Core.generate_dialect (dialect "minimal") with
        | Ok g -> g
        | Error e -> Alcotest.failf "generate minimal: %a" Core.pp_error e
      in
      List.iter2
        (fun sql item ->
          match (Core.parse_cst g sql, item) with
          | Ok cst, Wire.Accepted { cst = Some (Wire.Text text); _ } ->
            Alcotest.(check string)
              (Printf.sprintf "reply renders %S as Cst.pp" sql)
              (Fmt.str "%a" Parser_gen.Cst.pp cst)
              text
          | Ok _, _ -> Alcotest.failf "%S not rendered" sql
          | Error _, _ -> ())
        stmts b_cst.Wire.items;
      let b_rec = request_exn ~mode:Wire.Recognize binary stmts in
      (match b_rec.Wire.items with
      | Wire.Accepted { cst = None; tokens } :: _ ->
        check_bool "recognize still counts tokens" true (tokens > 0)
      | _ -> Alcotest.fail "recognize mode must omit the tree");
      Client.close binary)

(* A reply over 1 MiB sends the connection's reply buffer (and the
   client's receive buffer) back to their initial capacity once it is
   written (read); the small requests after it on the same connection
   must still come back rendered exactly as [Cst.pp]. *)
let test_outlier_reply_then_small () =
  with_server (fun server ->
      let g =
        match Core.generate_dialect (dialect "full") with
        | Ok g -> g
        | Error e -> Alcotest.failf "generate full: %a" Core.pp_error e
      in
      let insert rows =
        "INSERT INTO readings ( nodeid , temp ) VALUES "
        ^ String.concat " , "
            (List.init rows (fun i -> Printf.sprintf "( %d , 'n%d' )" i i))
      in
      let big = [ insert 1200; insert 1300 ]
      and small = [ "SELECT a FROM t"; insert 2; "SELECT FROM" ] in
      let client, _ = connect_exn ~selection:(Wire.Dialect "full") server in
      let largest = ref 0 in
      List.iter
        (fun stmts ->
          let reply = request_exn client stmts in
          let bytes = ref 0 in
          List.iter2
            (fun sql item ->
              match (Core.parse_cst g sql, item) with
              | Ok cst, Wire.Accepted { cst = Some (Wire.Text text); _ } ->
                bytes := !bytes + String.length text;
                if not (String.equal (Fmt.str "%a" Parser_gen.Cst.pp cst) text)
                then Alcotest.failf "%S is not rendered as Cst.pp" sql
              | Ok _, _ -> Alcotest.failf "%S not rendered" sql
              | Error _, Wire.Rejected _ -> ()
              | Error _, _ -> Alcotest.failf "%S not rejected" sql)
            stmts reply.Wire.items;
          largest := max !largest !bytes)
        [ small; big; small; small ];
      check_bool
        (Printf.sprintf "the outlier reply carries %d bytes of trees (over 1 MiB)"
           !largest)
        true (!largest > 1 lsl 20);
      Client.close client)

(* The daemon writes each reply as it parses the request, rendering each
   statement's rows into the frame. Every reply, on six dialects' corpora
   with their rejected statements, in both modes, must
   equal the one built from the whole batch parsed first
   ([Session.parse_batch] + [outcome_of_item], which renders through
   [Cst.pp], not the rows renderer): the same items by [encode_items] and
   the same stats, but for the time. *)
let corpus = function
  | "minimal" -> Corpus.minimal_accept @ Corpus.minimal_reject
  | "scql" -> Corpus.scql_accept @ Corpus.scql_reject
  | "tinysql" -> Corpus.tinysql_accept @ Corpus.tinysql_reject
  | "embedded" -> Corpus.embedded_accept @ Corpus.embedded_reject
  | "analytics" -> Corpus.analytics_accept @ Corpus.analytics_reject
  | _ -> Corpus.full_accept @ Corpus.always_reject

let test_streamed_replies_equal_batches () =
  with_server (fun server ->
      List.iter
        (fun (d : Dialects.Dialect.t) ->
          let stmts = corpus d.Dialects.Dialect.name in
          let session =
            match Service.Cache.generate_dialect shared_cache d with
            | Ok g -> Service.Session.create g
            | Error e -> Alcotest.failf "generate %s: %a" d.name Core.pp_error e
          in
          let batch = Service.Session.parse_batch session stmts in
          let want = batch.Service.Session.batch_stats in
          check_bool
            (Printf.sprintf "%s: the corpus has accepted and rejected statements"
               d.name)
            true
            (want.Service.Session.accepted > 0 && want.Service.Session.rejected > 0);
          let client, _ = connect_exn ~selection:(Wire.Dialect d.name) server in
          List.iter
            (fun (mode, mode_name) ->
              let label = Printf.sprintf "%s %s" d.name mode_name in
              let reply = request_exn ~mode client stmts in
              Alcotest.(check string)
                (label ^ ": items = the batch's")
                (Wire.encode_items
                   (List.map (Server.outcome_of_item mode)
                      batch.Service.Session.items))
                (Wire.encode_items reply.Wire.items);
              let got = reply.Wire.stats in
              List.iter
                (fun (field, w, g) -> check_int (label ^ ": " ^ field) w g)
                [
                  ("statements", want.Service.Session.statements, got.Wire.statements);
                  ("accepted", want.Service.Session.accepted, got.Wire.accepted);
                  ("rejected", want.Service.Session.rejected, got.Wire.rejected);
                  ("tokens", want.Service.Session.tokens, got.Wire.tokens);
                ])
            [ (Wire.Cst, "cst"); (Wire.Recognize, "recognize") ];
          Client.close client)
        Dialects.Dialect.all)

(* --- concurrency determinism ------------------------------------------- *)

let rotate n l =
  let len = List.length l in
  if len = 0 then l
  else
    let n = n mod len in
    let rec split i acc = function
      | rest when i = 0 -> rest @ List.rev acc
      | x :: rest -> split (i - 1) (x :: acc) rest
      | [] -> List.rev acc
    in
    split n [] l

let determinism_workload =
  [
    "SELECT a FROM t";
    "SELECT DISTINCT a FROM t";
    "SELECT a FROM t WHERE a = b";
    "SELECT a FROM t GROUP BY a";
    "SELECT a FROM";
    "DROP TABLE t";
    "SELECT \x01 FROM t";
    "";
  ]

let test_concurrent_clients_deterministic () =
  with_server ~workers:8 (fun server ->
      (* The in-process reference: one sequential parse per batch,
         rendered through the exact mapping the server uses. *)
      let session =
        match
          Service.Session.of_cache ~label:"minimal"
            (Service.Cache.create ())
            (dialect "minimal").Dialects.Dialect.config
        with
        | Ok s -> s
        | Error e -> Alcotest.failf "reference session: %a" Core.pp_error e
      in
      let batches =
        List.init 8 (fun i -> rotate i determinism_workload)
      in
      let expected =
        List.map
          (fun stmts ->
            let batch = Service.Session.parse_batch session stmts in
            Wire.encode_items
              (List.map
                 (Server.outcome_of_item Wire.Cst)
                 batch.Service.Session.items))
          batches
      in
      let failures = Array.make (List.length batches) None in
      let run i stmts want =
        match
          Client.connect
            ~selection:(Wire.Dialect "minimal")
            (Server.address server)
        with
        | Error e ->
          failures.(i) <- Some (Fmt.str "connect: %a" Wire.pp_error e)
        | Ok (client, _) ->
          (* Several requests per connection, so replies interleave
             across the worker pool while each connection also checks
             its own request/reply ordering. *)
          for _round = 1 to 3 do
            match Client.request client stmts with
            | Error e ->
              failures.(i) <- Some (Fmt.str "request: %a" Wire.pp_error e)
            | Ok reply ->
              if not (String.equal (Wire.encode_items reply.Wire.items) want)
              then failures.(i) <- Some "items differ from library results"
          done;
          Client.close client
      in
      let threads =
        List.mapi
          (fun i (stmts, want) -> Thread.create (fun () -> run i stmts want) ())
          (List.combine batches expected)
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i failure ->
          match failure with
          | Some msg -> Alcotest.failf "client %d: %s" i msg
          | None -> ())
        failures;
      let s = Server.stats server in
      check_bool "8 concurrent connections accepted" true
        (s.Server.connections >= 8);
      check_int "every request answered" (8 * 3) s.Server.requests)

(* --- lifecycle ---------------------------------------------------------- *)

let test_unix_socket_lifecycle () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sqlpl-serve-test-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  with_server ~addr:(Wire.Unix_socket path) (fun server ->
      check_bool "socket file exists while serving" true (Sys.file_exists path);
      let client, _ok = connect_exn ~selection:(Wire.Dialect "minimal") server in
      let reply = request_exn client [ "SELECT a FROM t" ] in
      check_int "served over the unix socket" 1 reply.Wire.stats.Wire.accepted;
      Client.close client;
      (* Binding the same path while the socket file exists fails cleanly. *)
      match Server.start ~cache:shared_cache (Wire.Unix_socket path) with
      | Ok second ->
        Server.stop second;
        Alcotest.fail "second bind on a live unix socket must fail"
      | Error msg ->
        check_bool "error names the address" true (contains msg path));
  check_bool "socket path unlinked on stop" false (Sys.file_exists path)

let test_port_in_use_reported () =
  with_server (fun server ->
      match Server.start ~cache:shared_cache (Server.address server) with
      | Ok second ->
        Server.stop second;
        Alcotest.fail "second bind on a live port must fail"
      | Error msg ->
        check_bool "clean error, not an exception" true (String.length msg > 0);
        assert_alive server)

let test_stop_is_idempotent () =
  match Server.start ~cache:shared_cache (Wire.Tcp ("127.0.0.1", 0)) with
  | Error msg -> Alcotest.failf "server start: %s" msg
  | Ok server ->
    let client, _ok = connect_exn ~selection:(Wire.Dialect "minimal") server in
    Server.stop server;
    Server.stop server;
    (* The interrupted client sees a structured error, not a hang. *)
    (match Client.request client [ "SELECT a FROM t" ] with
    | Ok _ -> Alcotest.fail "request served after stop"
    | Error e ->
      check_bool "structured failure after stop" true
        (e.Wire.code = Wire.Io || e.Wire.code = Wire.Bad_frame));
    Client.close client;
    match Client.connect ~selection:(Wire.Dialect "minimal")
            (Server.address server)
    with
    | Ok _ -> Alcotest.fail "connect succeeded after stop"
    | Error e -> check_bool "connect refused" true (e.Wire.code = Wire.Io)

(* A JSON line holding a 10 KB string member, over a Unix socket: the
   daemon answers with one [Oversized] frame and hangs up without
   resetting the connection, because it shuts its write side and drains
   the unread line before it closes. The client reads late, after the
   daemon is done with the connection: a close with the line unread
   would have reset it and destroyed the frame. *)
let test_long_json_line_draws_one_frame () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sqlpl-serve-json-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  with_server ~addr:(Wire.Unix_socket path) (fun server ->
      for _ = 1 to 3 do
        let fd = raw_connect server in
        let line =
          {|{"frame":"hello","client":"|} ^ String.make 10_000 'x' ^ {|"}|} ^ "\n"
        in
        let rec send off =
          if off < String.length line then
            send (off + Unix.write_substring fd line off (String.length line - off))
        in
        send 0;
        (* read only once the daemon has had time to hang up *)
        Thread.delay 0.1;
        let reader = Wire.reader (fun b o l -> Unix.read fd b o l) in
        (match Wire.read_frame reader with
        | Ok (Some (Wire.Error e)) ->
          check_bool "oversized" true (e.Wire.code = Wire.Oversized)
        | Ok _ -> Alcotest.fail "long JSON line not answered with an error frame"
        | Error e -> Alcotest.failf "reading the error frame: %a" Wire.pp_error e
        | exception Unix.Unix_error (err, _, _) ->
          Alcotest.failf "reading the error frame: %s" (Unix.error_message err));
        (match Wire.read_frame reader with
        | Ok None -> ()
        | _ -> Alcotest.fail "a second frame after the error");
        Unix.close fd
      done;
      assert_alive server)

let suite =
  [
    Alcotest.test_case "a version-1 hello draws bad_frame" `Quick
      test_hello_version_1;
    Alcotest.test_case "malformed hello draws a structured error" `Quick
      test_bad_hello;
    Alcotest.test_case "unknown dialect and digest are rejected; digest \
                        pinning works after warm-up" `Quick
      test_unknown_dialect_and_digest;
    Alcotest.test_case "invalid feature config is rejected" `Quick
      test_invalid_feature_config;
    Alcotest.test_case "mid-frame disconnect leaves the daemon serving" `Quick
      test_midframe_disconnect;
    Alcotest.test_case "byte-at-a-time writes are reassembled" `Quick
      test_slow_dribbled_writes;
    Alcotest.test_case "oversized payloads are rejected without allocation"
      `Quick test_oversized_payload_rejected;
    Alcotest.test_case "poisoned statement poisons only its item" `Quick
      test_poisoned_statement_isolated;
    Alcotest.test_case "cst/recognize modes" `Quick test_modes;
    Alcotest.test_case "a reply over 1 MiB, then small ones, all render as pp"
      `Quick test_outlier_reply_then_small;
    Alcotest.test_case "concurrent clients match the library byte-for-byte"
      `Quick test_concurrent_clients_deterministic;
    Alcotest.test_case "unix socket lifecycle and cleanup" `Quick
      test_unix_socket_lifecycle;
    Alcotest.test_case "port in use is a clean startup error" `Quick
      test_port_in_use_reported;
    Alcotest.test_case "stop is idempotent and interrupts clients" `Quick
      test_stop_is_idempotent;
    Alcotest.test_case
      "streamed replies equal parse-then-render batches, six dialects"
      `Quick test_streamed_replies_equal_batches;
    Alcotest.test_case "a JSON line draws one binary error frame" `Quick
      test_json_line_draws_binary_error;
    Alcotest.test_case "a 10 KB JSON line over a Unix socket draws one frame"
      `Quick test_long_json_line_draws_one_frame;
  ]

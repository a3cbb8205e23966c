(* Streaming differential and memory-ceiling tests.

   The contract: chunked streaming is invisible. [Core.fold_statements]
   over any chunk size yields exactly the statement list
   [Core.split_statements] produces on the concatenated input — chunk
   boundaries may fall inside tokens, inside quoted strings holding [;],
   anywhere — and [Session.parse_stream] yields items whose rendered CSTs
   and errors are byte-identical to a whole-buffer [Session.parse_batch]
   and to [Core.parse_cst_counted] over each whole statement. On top, the
   memory ceiling: streaming a script many times larger must not grow the
   major heap's high-water mark, and the server's raw streaming mode must put
   the same bytes on the wire that {!Service.Server.stream_line_of_item}
   renders in process, even when the client dribbles the stream one byte
   at a time. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let front_end name =
  match
    Core.generate_dialect
      (List.find
         (fun (d : Dialects.Dialect.t) -> d.Dialects.Dialect.name = name)
         Dialects.Dialect.all)
  with
  | Ok g -> g
  | Error e -> Alcotest.failf "generate %s: %a" name Core.pp_error e

(* A [read] over an in-memory string, returning at most [cap] bytes per
   call so the fold's own chunking is exercised against short reads too. *)
let reader_of_string ?(cap = max_int) s =
  let pos = ref 0 in
  fun buf off len ->
    let len = min (min len cap) (String.length s - !pos) in
    if len <= 0 then 0
    else begin
      Bytes.blit_string s !pos buf off len;
      pos := !pos + len;
      len
    end

let chunk_sizes = [ 1; 7; 4096 ]

(* --- splitter ----------------------------------------------------------- *)

let test_fold_matches_split () =
  (* Crafted so that chunk size 1 and 7 put boundaries inside keywords,
     inside a quoted string containing [;], and between the quote toggles. *)
  let script =
    "SELECT a FROM t;\n\
     INSERT INTO logs VALUES ('semi;colons; inside');\n\
     ; ;\n\
     UPDATE t SET x = 'it''s; tricky' WHERE y = 2;\n\
     SELECT trailing FROM statement_without_semicolon"
  in
  let expected = Core.split_statements script in
  List.iter
    (fun chunk_size ->
      let streamed =
        List.rev
          (Core.fold_statements ~chunk_size
             ~read:(reader_of_string script)
             (fun acc stmt -> stmt :: acc)
             [])
      in
      Alcotest.(check (list string))
        (Printf.sprintf "chunk %d splits identically" chunk_size)
        expected streamed;
      (* Short reads compose with chunking. *)
      let dribbled =
        List.rev
          (Core.fold_statements ~chunk_size
             ~read:(reader_of_string ~cap:3 script)
             (fun acc stmt -> stmt :: acc)
             [])
      in
      Alcotest.(check (list string))
        (Printf.sprintf "chunk %d with 3-byte reads splits identically"
           chunk_size)
        expected dribbled)
    chunk_sizes

(* Every chunk size from 1 to the script's length puts a boundary between
   the two bytes of each comment opener and closer, and inside every
   quoted span: the streamed split must still equal the whole-string one. *)
let test_fold_matches_split_with_comments () =
  let script =
    "SELECT a FROM t -- don't; stop\n;\n\
     SELECT b /* x; 'y */ FROM t;\n\
     SELECT \"it's;\" FROM t; /* only; a comment */ ;\n\
     SELECT 4 - 2 / 1 FROM t -- trailing"
  in
  let expected = Core.split_statements script in
  check_int "four statements" 4 (List.length expected);
  for chunk_size = 1 to String.length script do
    let streamed =
      List.rev
        (Core.fold_statements ~chunk_size
           ~read:(reader_of_string script)
           (fun acc stmt -> stmt :: acc)
           [])
    in
    Alcotest.(check (list string))
      (Printf.sprintf "chunk %d splits identically" chunk_size)
      expected streamed
  done

(* --- streamed parsing is whole-buffer parsing --------------------------- *)

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

let render_item (item : Service.Session.item) =
  match item.Service.Session.result with
  | Ok cst -> Fmt.str "ok %d %a" item.Service.Session.token_count
      Parser_gen.Cst.pp cst
  | Error e -> Fmt.str "err %a" Core.pp_error e

let test_stream_matches_batch () =
  List.iter
    (fun (d : Dialects.Dialect.t) ->
      let name = d.Dialects.Dialect.name in
      let g = front_end name in
      (* Statements containing top-level [;] would be split into different
         statement lists by design; the corpora don't, but filter defensively
         so the test's premise is visible. *)
      let stmts =
        List.filter
          (fun sql -> List.length (Core.split_statements sql) <= 1)
          (corpus_for name)
      in
      let script = String.concat ";\n" stmts ^ ";" in
      (* The baseline is [Core.parse_cst_counted] over each whole
         statement, outside any session: the gate is cross-path as well as
         cross-chunking. *)
      let expected =
        List.mapi
          (fun index sql ->
            let token_count, result = Core.parse_cst_counted g sql in
            render_item { Service.Session.index; sql; token_count; result })
          (Core.split_statements script)
      in
      let batch =
        Service.Session.parse_batch (Service.Session.create g)
          (Core.split_statements script)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: whole-buffer batch = counted" name)
        expected
        (List.map render_item batch.Service.Session.items);
      List.iter
        (fun chunk_size ->
          let streamed = ref [] in
          let stream_session = Service.Session.create g in
          let stats =
            Service.Session.parse_stream ~chunk_size
              ~parse:Core.parse_cst_counted stream_session
              ~on_item:(fun item -> streamed := render_item item :: !streamed)
              ~read:(reader_of_string script)
          in
          Alcotest.(check (list string))
            (Printf.sprintf "%s chunk %d: streamed = whole-buffer counted"
               name chunk_size)
            expected
            (List.rev !streamed);
          check_int
            (Printf.sprintf "%s chunk %d: statement count" name chunk_size)
            (List.length expected)
            stats.Service.Session.statements;
          check_int
            (Printf.sprintf "%s chunk %d: token total" name chunk_size)
            batch.Service.Session.batch_stats.Service.Session.tokens
            stats.Service.Session.tokens)
        chunk_sizes)
    Dialects.Dialect.all

(* --- memory ceiling ----------------------------------------------------- *)

(* A synthetic unbounded script: [read] fabricates statements on the fly,
   so no input buffer exists anywhere that could hide in the measurement. *)
let synthetic_reader ~bytes =
  let stmt = "SELECT nodeid, temp FROM sensors WHERE temp > 100;\n" in
  let n = String.length stmt in
  (* End on a statement boundary: a truncated tail would be a parse error. *)
  let bytes = bytes - (bytes mod n) in
  let remaining = ref bytes in
  fun buf off len ->
    let len = min len !remaining in
    if len <= 0 then 0
    else begin
      for i = 0 to len - 1 do
        Bytes.unsafe_set buf (off + i) stmt.[(bytes - !remaining + i) mod n]
      done;
      remaining := !remaining - len;
      len
    end

let test_stream_memory_ceiling () =
  let g = front_end "tinysql" in
  let session = Service.Session.create g in
  let run bytes =
    let stats =
      Service.Session.parse_stream ~chunk_size:65536
        ~parse:Core.parse_cst_counted session
        ~read:(synthetic_reader ~bytes)
    in
    check_bool
      (Printf.sprintf "%d-byte stream parsed" bytes)
      true
      (stats.Service.Session.statements > 0
      && stats.Service.Session.rejected = 0)
  in
  (* Warm up and set the high-water mark with a quarter of the volume, then
     stream 16 MB: the major-heap peak must not track input size. The
     warm-up must bring the heap to its steady state on its own, whatever
     ran before in the process: after 1 MB the heap still grew by more than
     the ceiling when this suite ran alone. A run that retained its
     statements would grow by about 2 M words here. *)
  run 4_000_000;
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.top_heap_words in
  run 16_000_000;
  let after = (Gc.quick_stat ()).Gc.top_heap_words in
  let grew = after - before in
  check_bool
    (Printf.sprintf
       "top-of-heap grew by %d words streaming 16 MB (ceiling 524288)" grew)
    true
    (grew < 524_288)

(* --- raw streaming server ----------------------------------------------- *)

let raw_connect server =
  match Service.Server.address server with
  | Service.Wire.Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    fd
  | Service.Wire.Unix_socket path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd

let write_string fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let read_all fd =
  let buf = Bytes.create 4096 in
  let b = Buffer.create 256 in
  let rec go () =
    match Unix.read fd buf 0 4096 with
    | 0 -> Buffer.contents b
    | n ->
      Buffer.add_subbytes b buf 0 n;
      go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
      (* A reset after the reply is still a read of the reply. *)
      Buffer.contents b
  in
  go ()

let with_stream_server f =
  match
    Service.Server.start ~workers:2 ~stream:true
      (Service.Wire.Tcp ("127.0.0.1", 0))
  with
  | Error msg -> Alcotest.failf "server start: %s" msg
  | Ok server ->
    Fun.protect
      ~finally:(fun () -> Service.Server.stop server)
      (fun () -> f server)

let test_raw_stream_roundtrip () =
  let script =
    "SELECT a FROM t;\nSELECT b FROM u WHERE x = 'a;b';\nBOGUS STATEMENT;"
  in
  (* The in-process truth: same dialect, same chunked splitter — collect
     the exact lines the server must emit. *)
  let g = front_end "tinysql" in
  let session = Service.Session.create g in
  let lines = Buffer.create 128 in
  let stats =
    Service.Session.parse_stream ~parse:Core.parse_cst_counted session
      ~on_item:(fun item ->
        Buffer.add_string lines (Service.Server.stream_line_of_item item))
      ~read:(reader_of_string script)
  in
  Buffer.add_string lines (Service.Server.stream_done_line stats);
  let expected = Buffer.contents lines in
  with_stream_server (fun server ->
      (* Cooperative clients first: the bare header, and each legacy
         engine word (accepted and ignored), answer byte-identically. *)
      List.iter
        (fun header ->
          let fd = raw_connect server in
          write_string fd ("S" ^ header ^ "\n");
          write_string fd script;
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          Alcotest.(check string)
            (Printf.sprintf "streamed reply (whole writes, %S)" header)
            expected (read_all fd);
          Unix.close fd)
        [ "tinysql"; "tinysql committed"; "tinysql vm"; "tinysql fused" ];
      (* Then a dribbling client: header and body one byte at a time, so
         chunk boundaries fall inside the header line, inside tokens and
         inside the quoted [;]. *)
      let fd = raw_connect server in
      String.iter
        (fun c -> write_string fd (String.make 1 c))
        ("Stinysql fused\n" ^ script);
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      Alcotest.(check string) "streamed reply (dribbled writes)" expected
        (read_all fd);
      Unix.close fd)

let test_raw_stream_bad_header () =
  with_stream_server (fun server ->
      let fd = raw_connect server in
      write_string fd "Sbogus_dialect\nSELECT 1;";
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let reply = read_all fd in
      Unix.close fd;
      check_bool "unknown dialect draws an err line" true
        (String.length reply >= 4 && String.sub reply 0 4 = "err ");
      let fd = raw_connect server in
      write_string fd "Stinysql warp_drive\nSELECT 1;";
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let reply = read_all fd in
      Unix.close fd;
      check_bool "unknown engine draws an err line" true
        (String.length reply >= 4 && String.sub reply 0 4 = "err "))

let test_raw_stream_disabled () =
  (* Without [~stream:true] the ['S'] opener draws one err line and the
     framed protocol is untouched. *)
  match Service.Server.start ~workers:1 (Service.Wire.Tcp ("127.0.0.1", 0)) with
  | Error msg -> Alcotest.failf "server start: %s" msg
  | Ok server ->
    Fun.protect
      ~finally:(fun () -> Service.Server.stop server)
      (fun () ->
        let fd = raw_connect server in
        write_string fd "Stinysql\nSELECT 1;";
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        let reply = read_all fd in
        Unix.close fd;
        check_bool "streaming disabled draws an err line" true
          (String.length reply >= 4 && String.sub reply 0 4 = "err "))

let suite =
  [
    Alcotest.test_case "fold_statements = split_statements at any chunking"
      `Quick test_fold_matches_split;
    Alcotest.test_case
      "fold_statements = split_statements across comments, chunks 1..n"
      `Quick test_fold_matches_split_with_comments;
    Alcotest.test_case
      "streamed parsing = whole-buffer parsing = counted parsing" `Quick
      test_stream_matches_batch;
    Alcotest.test_case "streaming holds a fixed memory ceiling" `Quick
      test_stream_memory_ceiling;
    Alcotest.test_case "raw stream server round-trip is byte-identical"
      `Quick test_raw_stream_roundtrip;
    Alcotest.test_case "raw stream bad header" `Quick
      test_raw_stream_bad_header;
    Alcotest.test_case "raw stream disabled by default" `Quick
      test_raw_stream_disabled;
  ]

(* Property tests for the service wire codec: binary frames round-trip
   arbitrary frames (payloads with embedded newlines, NUL bytes, raw
   non-ASCII, empty batches), and decoding hostile input — truncations,
   oversized length prefixes, random bytes, a line of JSON — returns
   structured errors, never raises, and never over-allocates. *)

module Gen = QCheck.Gen
module Wire = Service.Wire

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- generators --------------------------------------------------------- *)

(* Payload bytes draw from the full byte range, weighted toward the nasty
   cases: newlines, NUL, quotes, backslashes, and bytes above 0x7f (raw
   UTF-8 or not). *)
let gen_byte =
  Gen.frequency
    [
      (6, Gen.char_range 'a' 'z');
      (1, Gen.return '\n');
      (1, Gen.return '\000');
      (1, Gen.return '"');
      (1, Gen.return '\\');
      (1, Gen.char_range '\128' '\255');
      (1, Gen.char_range '\000' '\031');
    ]

let gen_string = Gen.string_size ~gen:gen_byte (Gen.int_bound 40)
let gen_small_list g = Gen.list_size (Gen.int_bound 5) g

let gen_span =
  Gen.map3
    (fun line column offset -> { Lexing_gen.Token.line; column; offset })
    (Gen.int_bound 10_000) (Gen.int_bound 500) (Gen.int_bound 1_000_000)

let gen_code =
  Gen.oneofl
    [
      Wire.Bad_frame; Wire.Oversized; Wire.Bad_hello; Wire.Unknown_dialect;
      Wire.Invalid_config; Wire.Unknown_digest; Wire.Lex_error;
      Wire.Parse_error; Wire.Unsupported; Wire.Io; Wire.Internal;
    ]

let gen_error =
  let open Gen in
  gen_code >>= fun code ->
  gen_string >>= fun message ->
  option gen_string >>= fun query ->
  option gen_span >>= fun span ->
  option gen_string >>= fun found ->
  gen_small_list gen_string >|= fun expected ->
  { Wire.code; message; query; span; found; expected }

let gen_selection =
  Gen.oneof
    [
      Gen.map (fun s -> Wire.Dialect s) gen_string;
      Gen.map (fun l -> Wire.Features l) (gen_small_list gen_string);
      Gen.map (fun s -> Wire.Digest s) gen_string;
    ]

let gen_outcome =
  Gen.oneof
    [
      Gen.map2
        (fun tokens text ->
          Wire.Accepted { tokens; cst = Option.map (fun s -> Wire.Text s) text })
        (Gen.int_bound 100_000) (Gen.option gen_string);
      Gen.map (fun e -> Wire.Rejected e) gen_error;
    ]

let gen_frame =
  let open Gen in
  oneof
    [
      map2
        (fun client selection -> Wire.Hello { client; selection })
        gen_string gen_selection;
      map3
        (fun digest label features -> Wire.Hello_ok { digest; label; features })
        gen_string gen_string (int_bound 200);
      map3
        (fun id mode statements -> Wire.Request { id; mode; statements })
        (int_bound 1_000_000)
        (oneofl [ Wire.Cst; Wire.Recognize ])
        (gen_small_list gen_string);
      (int_bound 1_000_000 >>= fun id ->
       gen_small_list gen_outcome >>= fun items ->
       int_bound 1000 >>= fun statements ->
       int_bound 1000 >>= fun accepted ->
       int_bound 1000 >>= fun rejected ->
       int_bound 100_000 >>= fun tokens ->
       map Int64.of_int (int_bound 1_000_000_000) >|= fun elapsed_ns ->
       Wire.Reply
         { id; items;
           stats = { statements; accepted; rejected; tokens; elapsed_ns } });
      map (fun e -> Wire.Error e) gen_error;
      map (fun p -> Wire.Ping p) gen_string;
      map (fun p -> Wire.Pong p) gen_string;
      return Wire.Bye;
    ]

let print_frame f = Fmt.str "%a" Wire.pp_frame f
let arb_frame = QCheck.make ~print:print_frame gen_frame

(* --- round trips --------------------------------------------------------- *)

let binary_roundtrip =
  QCheck.Test.make ~count:500 ~name:"binary decode . encode = id" arb_frame
    (fun frame ->
      match Wire.decode (Wire.encode frame) with
      | Ok frame' -> frame' = frame
      | Error e -> QCheck.Test.fail_reportf "decode: %a" Wire.pp_error e)

(* --- hostile input ------------------------------------------------------- *)

let gen_frame_and_cut =
  let open Gen in
  gen_frame >>= fun frame ->
  let encoded = Wire.encode frame in
  int_range 0 (String.length encoded - 1) >|= fun cut -> (frame, cut)

let truncation_is_structured =
  QCheck.Test.make ~count:500
    ~name:"truncated binary frame decodes to bad_frame, not an exception"
    (QCheck.make
       ~print:(fun (f, cut) -> Printf.sprintf "%s cut at %d" (print_frame f) cut)
       gen_frame_and_cut)
    (fun (frame, cut) ->
      let encoded = Wire.encode frame in
      match Wire.decode (String.sub encoded 0 cut) with
      | Ok _ -> false (* a strict prefix can never be a complete frame *)
      | Error e -> e.Wire.code = Wire.Bad_frame)

let oversized_is_structured () =
  (* A length prefix beyond the limit must be rejected from the four header
     bytes alone — before any allocation the prefix asks for. *)
  let huge = "\255\255\255\255payload" in
  (match Wire.decode huge with
  | Error e -> Alcotest.(check bool) "oversized" true (e.Wire.code = Wire.Oversized)
  | Ok _ -> Alcotest.fail "4 GiB frame accepted");
  let legit = Wire.encode (Wire.Ping (String.make 256 'x')) in
  (match Wire.decode ~max_frame:64 legit with
  | Error e ->
    Alcotest.(check bool) "small limit" true (e.Wire.code = Wire.Oversized)
  | Ok _ -> Alcotest.fail "frame over the connection limit accepted");
  (* A line of JSON is not a frame: its first four bytes read as a length
     prefix far over the limit. *)
  (match Wire.decode {|{"frame":"hello","version":1,"client":"x"}|} with
  | Error e -> Alcotest.(check bool) "JSON line" true (e.Wire.code = Wire.Oversized)
  | Ok _ -> Alcotest.fail "a line of JSON decoded as a frame");
  (* A lying *inner* length field (a string claiming more bytes than the
     frame holds) is a bad frame, caught by the bounds check. *)
  let lying =
    let b = Buffer.create 16 in
    Buffer.add_string b "\000\000\000\006";
    (* tag=ping *) Buffer.add_char b '\006';
    (* string length 2^24, one actual byte *)
    Buffer.add_string b "\001\000\000\000x";
    Buffer.contents b
  in
  match Wire.decode lying with
  | Error e -> Alcotest.(check bool) "lying length" true (e.Wire.code = Wire.Bad_frame)
  | Ok _ -> Alcotest.fail "lying inner length accepted"

let garbage_never_raises =
  QCheck.Test.make ~count:1000 ~name:"binary decode is total on random bytes"
    (QCheck.make ~print:String.escaped
       (Gen.string_size ~gen:(Gen.char_range '\000' '\255') (Gen.int_bound 64)))
    (fun s ->
      match Wire.decode s with Ok _ -> true | Error _ -> true)

(* --- specifics ----------------------------------------------------------- *)

let empty_batch_roundtrips () =
  let frame = Wire.Request { Wire.id = 0; mode = Wire.Cst; statements = [] } in
  match Wire.decode (Wire.encode frame) with
  | Ok f -> Alcotest.(check bool) "binary" true (f = frame)
  | Error e -> Alcotest.failf "binary: %a" Wire.pp_error e

let nasty_statement_roundtrips () =
  let nasty = "SELECT 'a\nb' FROM \000t; -- caf\xc3\xa9 \"quote\" \\slash" in
  let frame =
    Wire.Request { Wire.id = 7; mode = Wire.Recognize; statements = [ nasty; "" ] }
  in
  match Wire.decode (Wire.encode frame) with
  | Ok f -> Alcotest.(check bool) "roundtrip" true (f = frame)
  | Error e -> Alcotest.failf "%a" Wire.pp_error e

let trailing_bytes_rejected () =
  let s = Wire.encode Wire.Bye ^ "x" in
  match Wire.decode s with
  | Error e -> Alcotest.(check bool) "bad_frame" true (e.Wire.code = Wire.Bad_frame)
  | Ok _ -> Alcotest.fail "trailing bytes accepted"

(* The reader pulls frames out of a dribbled stream: one byte per read
   call, several frames back to back. *)
let reader_reassembles_dribble () =
  let frames =
    [
      Wire.Ping "a\nb\000c";
      Wire.Request { Wire.id = 1; mode = Wire.Cst; statements = [ "SELECT 1" ] };
      Wire.Bye;
    ]
  in
  let stream = String.concat "" (List.map Wire.encode frames) in
  let pos = ref 0 in
  let read buf off _len =
    if !pos >= String.length stream then 0
    else begin
      Bytes.set buf off stream.[!pos];
      incr pos;
      1
    end
  in
  let r = Wire.reader read in
  List.iter
    (fun expect ->
      match Wire.read_frame r with
      | Ok (Some f) -> Alcotest.(check bool) "frame" true (f = expect)
      | Ok None -> Alcotest.fail "premature end of stream"
      | Error e -> Alcotest.failf "%a" Wire.pp_error e)
    frames;
  match Wire.read_frame r with
  | Ok None -> ()
  | Ok (Some f) -> Alcotest.failf "unexpected frame %a" Wire.pp_frame f
  | Error e -> Alcotest.failf "%a" Wire.pp_error e

(* A hello is version 2: tag, version, the client string, then the
   selection, with no byte between them. A version-1 hello (which carried
   an engine byte after the client string) is a structured bad frame. *)
let hello_version_2 () =
  let hello = Wire.Hello { Wire.client = "old"; selection = Wire.Dialect "full" } in
  let encoded = Wire.encode hello in
  Alcotest.(check int) "version byte" 2 (Char.code encoded.[5]);
  Alcotest.(check int) "frame size"
    (4 + 1 + 1 + (4 + String.length "old") + 1 + (4 + String.length "full"))
    (String.length encoded);
  let v1 =
    let b = Buffer.create 32 in
    Buffer.add_string b "\000\000\000\019\001\001";
    Buffer.add_string b "\000\000\000\003old";
    (* engine byte *) Buffer.add_char b '\000';
    Buffer.add_string b "\000\000\000\000\004full";
    Buffer.contents b
  in
  match Wire.decode v1 with
  | Error e ->
    Alcotest.(check bool) "bad_frame" true (e.Wire.code = Wire.Bad_frame);
    Alcotest.(check string) "message" "unsupported hello version 1"
      e.Wire.message
  | Ok f -> Alcotest.failf "version-1 hello accepted as %a" Wire.pp_frame f

let reader_reports_truncation () =
  let whole = Wire.encode (Wire.Ping "hello") in
  let cut = String.sub whole 0 (String.length whole - 2) in
  let pos = ref 0 in
  let read buf off len =
    let n = min len (String.length cut - !pos) in
    Bytes.blit_string cut !pos buf off n;
    pos := !pos + n;
    n
  in
  let r = Wire.reader read in
  match Wire.read_frame r with
  | Error e -> Alcotest.(check bool) "bad_frame" true (e.Wire.code = Wire.Bad_frame)
  | Ok _ -> Alcotest.fail "truncated stream yielded a frame"

(* --- trees: rendered into the frame, decoded as text ----------------------- *)

let tok ?(text = "") kind =
  { Lexing_gen.Token.kind; kind_id = Lexing_gen.Token.no_id; text;
    pos = { Lexing_gen.Token.line = 1; column = 1; offset = 0 } }

(* Real trees from the full and analytics corpora, plus leaves whose text
   holds quotes, backslashes, control bytes and raw UTF-8. *)
let sample_trees () =
  let parse name stmts =
    match Dialects.Dialect.find name with
    | None -> Alcotest.failf "no dialect %s" name
    | Some d -> (
      match Core.generate_dialect d with
      | Error e -> Alcotest.failf "generate %s: %a" name Core.pp_error e
      | Ok g ->
        List.filter_map (fun sql -> Result.to_option (Core.parse_cst g sql)) stmts)
  in
  let escapes =
    Parser_gen.Cst.Node
      ( "literals",
        [ Parser_gen.Cst.Leaf (tok ~text:"'a \"b\" \\ c\n\000 caf\xc3\xa9'" "STRING");
          Parser_gen.Cst.Leaf (tok ~text:(String.make 90 'x') "IDENT") ] )
  in
  (escapes :: parse "full" Corpus.full_accept) @ parse "analytics" Corpus.analytics_accept

let reply_with cst_of trees =
  Wire.Reply
    {
      Wire.id = 3;
      items =
        List.map (fun t -> Wire.Accepted { tokens = 9; cst = Some (cst_of t) }) trees
        @ [ Wire.Rejected (Wire.error Wire.Parse_error "parse error");
            Wire.Accepted { tokens = 2; cst = None } ];
      stats = { statements = 0; accepted = 0; rejected = 1; tokens = 0; elapsed_ns = 5L };
    }

let as_text t = Wire.Text (Fmt.str "%a" Parser_gen.Cst.pp t)

(* Each tree as rows of its own ([Parser_gen.Rows.of_cst]), so that all of them
   can sit in one reply. *)
let as_rows t = Wire.Rows (Parser_gen.Rows.of_cst t)

(* [Rows] of a tree and [Text (Cst.pp t)] are the same bytes in a frame
   and in [encode_items]; decoding either gives back the [Text].
   The same holds for the rows a parse builds, encoded as a producer
   yields them, each before the next statement is parsed. *)
let rows_and_text_agree () =
  let trees = sample_trees () in
  Alcotest.(check bool) "trees parsed" true (List.length trees > 20);
  let rows = reply_with as_rows trees
  and text = reply_with as_text trees in
  let encoded = Wire.encode rows in
  Alcotest.(check string) "Rows and Text encode alike" (Wire.encode text) encoded;
  (match Wire.decode encoded with
  | Ok f -> Alcotest.(check bool) "decodes to Text = Cst.pp" true (f = text)
  | Error e -> Alcotest.failf "decode: %a" Wire.pp_error e);
  List.iter
    (fun t ->
      Alcotest.(check string) "encode_items"
        (Wire.encode_items [ Wire.Accepted { tokens = 1; cst = Some (as_text t) } ])
        (Wire.encode_items [ Wire.Accepted { tokens = 1; cst = Some (as_rows t) } ]))
    trees;
  let g =
    match Core.generate_dialect Dialects.Dialect.full with
    | Ok g -> g
    | Error e -> Alcotest.failf "generate full: %a" Core.pp_error e
  in
  let stmts = Corpus.full_accept in
  let stats = { Wire.statements = 0; accepted = 0; rejected = 0; tokens = 0; elapsed_ns = 0L } in
  let streamed = Wire.writer () in
  Wire.encode_reply_into streamed ~id:1 (fun emit ->
      List.iter
        (fun sql ->
          match Core.parse_rows g sql with
          | Ok t -> emit (Wire.Accepted { tokens = 0; cst = Some (Wire.Rows t) })
          | Error e -> Alcotest.failf "%S: %a" sql Core.pp_error e)
        stmts;
      stats);
  let built =
    List.map
      (fun sql ->
        match Core.parse_cst g sql with
        | Ok t -> Wire.Accepted { tokens = 0; cst = Some (as_text t) }
        | Error e -> Alcotest.failf "%S: %a" sql Core.pp_error e)
      stmts
  in
  let sent = Buffer.create 1024 in
  Wire.output streamed (fun buf off len ->
      Buffer.add_subbytes sent buf off len;
      len);
  Alcotest.(check string) "parsed rows encode as their Text"
    (Wire.encode (Wire.Reply { Wire.id = 1; items = built; stats }))
    (Buffer.contents sent)

(* One writer reused across frames gives the bytes a fresh encoder gives,
   whatever [write] accepts per call; after a frame over 1 MiB it returns
   to its initial capacity and keeps encoding correctly. *)
let writer_reuse_and_shrink () =
  let w = Wire.writer () in
  let initial = Wire.writer_capacity w in
  let sent = Buffer.create 1024 in
  let write step buf off len =
    let n = min step len in
    Buffer.add_subbytes sent buf off n;
    n
  in
  let big = Wire.Ping (String.make (3 * 1024 * 1024 / 2) 'p') in
  let trees = sample_trees () in
  List.iter
    (fun (frame, step) ->
      Wire.encode_into w frame;
      Buffer.clear sent;
      Wire.output w (write step);
      Alcotest.(check string) "writer bytes = fresh encoding" (Wire.encode frame)
        (Buffer.contents sent);
      Alcotest.(check bool)
        (Printf.sprintf "writer holds %d bytes, at most 1 MiB, after output"
           (Wire.writer_capacity w))
        true
        (Wire.writer_capacity w <= 1 lsl 20))
    [
      (reply_with as_rows trees, 7);
      (reply_with as_rows trees, 65536);
      (big, 65536);
      (Wire.Ping "small", 1);
      (big, 100_000);
      (reply_with as_rows trees, 3);
    ];
  Wire.encode_into w big;
  Alcotest.(check bool) "an outlier grows the writer" true
    (Wire.writer_capacity w > 1 lsl 20);
  Wire.output w (fun _ _ len -> len);
  Alcotest.(check int) "and output returns it to its initial capacity" initial
    (Wire.writer_capacity w)

(* A reply producer that raises after two items leaves part of a frame in
   the writer; the error frame the server then encodes into the same
   writer must come out whole, byte for byte a fresh encoding, and decode
   cleanly. *)
let raising_producer_then_error () =
  let trees = sample_trees () in
  Alcotest.(check bool) "three sample trees" true (List.length trees >= 3);
  let w = Wire.writer () in
  let emitted = ref 0 in
  (match
     Wire.encode_reply_into w ~id:7 (fun emit ->
         List.iter
           (fun t ->
             if !emitted = 2 then failwith "poisoned statement";
             emit (Wire.Accepted { tokens = 9; cst = Some (as_rows t) });
             incr emitted)
           trees;
         Alcotest.fail "producer ran past its third item")
   with
  | () -> Alcotest.fail "the producer's exception was swallowed"
  | exception Failure _ -> ());
  Alcotest.(check int) "two items encoded before the raise" 2 !emitted;
  let error = Wire.Error (Wire.error Wire.Internal "request 7 failed") in
  Wire.encode_into w error;
  let sent = Buffer.create 64 in
  Wire.output w (fun buf off len ->
      Buffer.add_subbytes sent buf off len;
      len);
  Alcotest.(check string) "the error frame is a fresh encoding"
    (Wire.encode error) (Buffer.contents sent);
  match Wire.decode (Buffer.contents sent) with
  | Ok f -> Alcotest.(check bool) "decodes to the error" true (f = error)
  | Error e -> Alcotest.failf "decode: %a" Wire.pp_error e

(* A reader that drained a frame over 1 MiB keeps reading the frames
   behind it, whether they arrived in the same read or later. *)
let reader_after_outlier () =
  let frames =
    [ Wire.Ping (String.make (3 * 1024 * 1024 / 2) 'q'); Wire.Ping "after";
      Wire.Pong (String.make (2 * 1024 * 1024) 'r'); Wire.Bye ]
  in
  let stream = String.concat "" (List.map Wire.encode frames) in
  let pos = ref 0 in
  let read buf off len =
    let n = min (min len 50_000) (String.length stream - !pos) in
    Bytes.blit_string stream !pos buf off n;
    pos := !pos + n;
    n
  in
  let r = Wire.reader read in
  List.iter
    (fun expect ->
      match Wire.read_frame r with
      | Ok (Some f) -> Alcotest.(check bool) "frame" true (f = expect)
      | Ok None -> Alcotest.fail "premature end of stream"
      | Error e -> Alcotest.failf "%a" Wire.pp_error e)
    frames

let suite =
  [
    to_alcotest binary_roundtrip;
    to_alcotest truncation_is_structured;
    to_alcotest garbage_never_raises;
    Alcotest.test_case "oversized and lying lengths are structured" `Quick
      oversized_is_structured;
    Alcotest.test_case "empty batch round-trips" `Quick empty_batch_roundtrips;
    Alcotest.test_case "nasty statement round-trips" `Quick
      nasty_statement_roundtrips;
    Alcotest.test_case "trailing bytes rejected" `Quick trailing_bytes_rejected;
    Alcotest.test_case "reader reassembles dribbled frames" `Quick
      reader_reassembles_dribble;
    Alcotest.test_case "reader reports mid-frame end of stream" `Quick
      reader_reports_truncation;
    Alcotest.test_case "a version-1 hello is a bad frame" `Quick
      hello_version_2;
    Alcotest.test_case "Rows and Text of one CST encode alike" `Quick
      rows_and_text_agree;
    Alcotest.test_case "a reused writer encodes like a fresh one and shrinks"
      `Quick writer_reuse_and_shrink;
    Alcotest.test_case "reader keeps reading after a frame over 1 MiB" `Quick
      reader_after_outlier;
    Alcotest.test_case "a reply producer raising mid-frame, then an error frame"
      `Quick raising_producer_then_error;
  ]

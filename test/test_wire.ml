(* Property tests for the service wire codec: binary and JSON encodings
   round-trip arbitrary frames (payloads with embedded newlines, NUL bytes,
   raw non-ASCII, empty batches), the two encodings agree frame for frame,
   and decoding hostile input — truncations, oversized length prefixes,
   random bytes — returns structured errors, never raises, and never
   over-allocates. *)

module Gen = QCheck.Gen
module Wire = Service.Wire

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- generators --------------------------------------------------------- *)

(* Payload bytes draw from the full byte range, weighted toward the nasty
   cases: newlines (the JSON framing delimiter), NUL, quotes, backslashes,
   and bytes above 0x7f (raw UTF-8 or not). *)
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

let json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"JSON decode . encode = id" arb_frame
    (fun frame ->
      match Wire.decode_json (Wire.encode_json frame) with
      | Ok frame' -> frame' = frame
      | Error e -> QCheck.Test.fail_reportf "decode_json: %a" Wire.pp_error e)

(* The newline-JSON debug framing only works if a frame is exactly one
   line: every embedded newline must be escaped away. *)
let json_single_line =
  QCheck.Test.make ~count:500 ~name:"JSON encoding is one line" arb_frame
    (fun frame ->
      let s = Wire.encode_json frame in
      String.length s > 0
      && s.[String.length s - 1] = '\n'
      && not (String.contains (String.sub s 0 (String.length s - 1)) '\n'))

(* Both encodings carry the same frame: decoding the JSON form yields
   exactly what decoding the binary form yields. *)
let encodings_agree =
  QCheck.Test.make ~count:500 ~name:"JSON mode agrees with binary mode"
    arb_frame (fun frame ->
      match (Wire.decode (Wire.encode frame), Wire.decode_json (Wire.encode_json frame)) with
      | Ok a, Ok b -> a = b && a = frame
      | _ -> false)

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

let json_garbage_never_raises =
  QCheck.Test.make ~count:1000 ~name:"JSON decode is total on random bytes"
    (QCheck.make ~print:String.escaped
       (Gen.string_size ~gen:(Gen.char_range '\000' '\255') (Gen.int_bound 64)))
    (fun s ->
      match Wire.decode_json s with Ok _ -> true | Error _ -> true)

(* --- specifics ----------------------------------------------------------- *)

let empty_batch_roundtrips () =
  let frame = Wire.Request { Wire.id = 0; mode = Wire.Cst; statements = [] } in
  (match Wire.decode (Wire.encode frame) with
  | Ok f -> Alcotest.(check bool) "binary" true (f = frame)
  | Error e -> Alcotest.failf "binary: %a" Wire.pp_error e);
  match Wire.decode_json (Wire.encode_json frame) with
  | Ok f -> Alcotest.(check bool) "json" true (f = frame)
  | Error e -> Alcotest.failf "json: %a" Wire.pp_error e

let nasty_statement_roundtrips () =
  let nasty = "SELECT 'a\nb' FROM \000t; -- caf\xc3\xa9 \"quote\" \\slash" in
  let frame =
    Wire.Request { Wire.id = 7; mode = Wire.Recognize; statements = [ nasty; "" ] }
  in
  List.iter
    (fun enc ->
      match Wire.decode_as enc (Wire.encode_as enc frame) with
      | Ok f -> Alcotest.(check bool) "roundtrip" true (f = frame)
      | Error e -> Alcotest.failf "%a" Wire.pp_error e)
    [ Wire.Binary; Wire.Json ]

let trailing_bytes_rejected () =
  let s = Wire.encode Wire.Bye ^ "x" in
  match Wire.decode s with
  | Error e -> Alcotest.(check bool) "bad_frame" true (e.Wire.code = Wire.Bad_frame)
  | Ok _ -> Alcotest.fail "trailing bytes accepted"

(* The reader pulls frames out of a dribbled stream: one byte per read
   call, several frames back to back, both encodings. *)
let reader_reassembles_dribble () =
  List.iter
    (fun enc ->
      let frames =
        [
          Wire.Ping "a\nb\000c";
          Wire.Request { Wire.id = 1; mode = Wire.Cst; statements = [ "SELECT 1" ] };
          Wire.Bye;
        ]
      in
      let stream = String.concat "" (List.map (Wire.encode_as enc) frames) in
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
      | Error e -> Alcotest.failf "%a" Wire.pp_error e)
    [ Wire.Binary; Wire.Json ]

(* The hello's engine byte and JSON member are what older peers send:
   every value an engine ever had decodes to the same frame, a value none
   had is still a structured error. Offsets: u32 length, tag, version,
   then the client string (u32 length + bytes), then the engine byte. *)
let legacy_engine_ignored () =
  let hello = Wire.Hello { Wire.client = "old"; selection = Wire.Dialect "full" } in
  let encoded = Wire.encode hello in
  let at = 4 + 1 + 1 + 4 + String.length "old" in
  Alcotest.(check char) "encoder writes engine byte 0" '\000' encoded.[at];
  let with_byte b =
    let s = Bytes.of_string encoded in
    Bytes.set s at (Char.chr b);
    Bytes.to_string s
  in
  List.iter
    (fun b ->
      match Wire.decode (with_byte b) with
      | Ok f ->
        Alcotest.(check bool) (Printf.sprintf "engine byte %d ignored" b) true
          (f = hello)
      | Error e -> Alcotest.failf "engine byte %d: %a" b Wire.pp_error e)
    [ 0; 1; 2 ];
  List.iter
    (fun b ->
      match Wire.decode (with_byte b) with
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "engine byte %d is a bad frame" b)
          true (e.Wire.code = Wire.Bad_frame)
      | Ok _ -> Alcotest.failf "engine byte %d accepted" b)
    [ 3; 255 ];
  List.iter
    (fun engine ->
      let line =
        Printf.sprintf
          {|{"frame":"hello","version":1,"client":"old","engine":%s,"selection":{"dialect":"full"}}|}
          engine
      in
      match Wire.decode_json line with
      | Ok f ->
        Alcotest.(check bool) (Printf.sprintf "JSON engine %s ignored" engine)
          true (f = hello)
      | Error e -> Alcotest.failf "JSON engine %s: %a" engine Wire.pp_error e)
    [ {|"committed"|}; {|"vm"|}; {|"fused"|}; {|"warp"|}; "7" ]

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
   needs JSON escaping. *)
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

(* [Tree t] and [Text (Cst.pp t)] are the same bytes in both encodings and
   in [encode_items]; decoding either gives back the [Text]. *)
let tree_and_text_agree () =
  let trees = sample_trees () in
  Alcotest.(check bool) "trees parsed" true (List.length trees > 20);
  let tree = reply_with (fun t -> Wire.Tree t) trees
  and text = reply_with as_text trees in
  List.iter
    (fun enc ->
      let encoded = Wire.encode_as enc tree in
      Alcotest.(check string) "Tree and Text encode alike" (Wire.encode_as enc text)
        encoded;
      match Wire.decode_as enc encoded with
      | Ok f -> Alcotest.(check bool) "decodes to Text = Cst.pp" true (f = text)
      | Error e -> Alcotest.failf "decode: %a" Wire.pp_error e)
    [ Wire.Binary; Wire.Json ];
  List.iter
    (fun t ->
      Alcotest.(check string) "encode_items"
        (Wire.encode_items [ Wire.Accepted { tokens = 1; cst = Some (as_text t) } ])
        (Wire.encode_items [ Wire.Accepted { tokens = 1; cst = Some (Wire.Tree t) } ]))
    trees

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
    (fun (enc, frame, step) ->
      Wire.encode_into w enc frame;
      Buffer.clear sent;
      Wire.output w (write step);
      Alcotest.(check string) "writer bytes = fresh encoding" (Wire.encode_as enc frame)
        (Buffer.contents sent);
      Alcotest.(check bool)
        (Printf.sprintf "writer holds %d bytes, at most 1 MiB, after output"
           (Wire.writer_capacity w))
        true
        (Wire.writer_capacity w <= 1 lsl 20))
    [
      (Wire.Binary, reply_with (fun t -> Wire.Tree t) trees, 7);
      (Wire.Json, reply_with (fun t -> Wire.Tree t) trees, 65536);
      (Wire.Binary, big, 65536);
      (Wire.Binary, Wire.Ping "small", 1);
      (Wire.Json, big, 100_000);
      (Wire.Json, reply_with (fun t -> Wire.Tree t) trees, 3);
    ];
  Wire.encode_into w Wire.Binary big;
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
  List.iter
    (fun enc ->
      let w = Wire.writer () in
      let emitted = ref 0 in
      (match
         Wire.encode_reply_into w enc ~id:7 (fun emit ->
             List.iter
               (fun t ->
                 if !emitted = 2 then failwith "poisoned statement";
                 emit (Wire.Accepted { tokens = 9; cst = Some (Wire.Tree t) });
                 incr emitted)
               trees;
             Alcotest.fail "producer ran past its third item")
       with
      | () -> Alcotest.fail "the producer's exception was swallowed"
      | exception Failure _ -> ());
      Alcotest.(check int) "two items encoded before the raise" 2 !emitted;
      let error = Wire.Error (Wire.error Wire.Internal "request 7 failed") in
      Wire.encode_into w enc error;
      let sent = Buffer.create 64 in
      Wire.output w (fun buf off len ->
          Buffer.add_subbytes sent buf off len;
          len);
      Alcotest.(check string) "the error frame is a fresh encoding"
        (Wire.encode_as enc error) (Buffer.contents sent);
      match Wire.decode_as enc (Buffer.contents sent) with
      | Ok f -> Alcotest.(check bool) "decodes to the error" true (f = error)
      | Error e -> Alcotest.failf "decode: %a" Wire.pp_error e)
    [ Wire.Binary; Wire.Json ]

(* A reader that drained a frame over 1 MiB keeps reading the frames
   behind it, whether they arrived in the same read or later. *)
let reader_after_outlier () =
  List.iter
    (fun enc ->
      let frames =
        [ Wire.Ping (String.make (3 * 1024 * 1024 / 2) 'q'); Wire.Ping "after";
          Wire.Pong (String.make (2 * 1024 * 1024) 'r'); Wire.Bye ]
      in
      let stream = String.concat "" (List.map (Wire.encode_as enc) frames) in
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
        frames)
    [ Wire.Binary; Wire.Json ]

let suite =
  [
    to_alcotest binary_roundtrip;
    to_alcotest json_roundtrip;
    to_alcotest json_single_line;
    to_alcotest encodings_agree;
    to_alcotest truncation_is_structured;
    to_alcotest garbage_never_raises;
    to_alcotest json_garbage_never_raises;
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
    Alcotest.test_case "legacy hello engine values are ignored" `Quick
      legacy_engine_ignored;
    Alcotest.test_case "Tree and Text of one CST encode alike" `Quick
      tree_and_text_agree;
    Alcotest.test_case "a reused writer encodes like a fresh one and shrinks"
      `Quick writer_reuse_and_shrink;
    Alcotest.test_case "reader keeps reading after a frame over 1 MiB" `Quick
      reader_after_outlier;
    Alcotest.test_case "a reply producer raising mid-frame, then an error frame"
      `Quick raising_producer_then_error;
  ]

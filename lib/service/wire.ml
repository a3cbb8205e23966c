type address =
  | Tcp of string * int
  | Unix_socket of string

let pp_address ppf = function
  | Tcp (host, port) -> Fmt.pf ppf "%s:%d" host port
  | Unix_socket path -> Fmt.pf ppf "unix:%s" path

type span = Lexing_gen.Token.position

type code =
  | Bad_frame
  | Oversized
  | Bad_hello
  | Unknown_dialect
  | Invalid_config
  | Unknown_digest
  | Lex_error
  | Parse_error
  | Unsupported
  | Io
  | Internal

let codes =
  [
    (Bad_frame, "bad_frame");
    (Oversized, "oversized");
    (Bad_hello, "bad_hello");
    (Unknown_dialect, "unknown_dialect");
    (Invalid_config, "invalid_config");
    (Unknown_digest, "unknown_digest");
    (Lex_error, "lex_error");
    (Parse_error, "parse_error");
    (Unsupported, "unsupported");
    (Io, "io");
    (Internal, "internal");
  ]

let code_to_string c = List.assoc c codes
let code_of_string s =
  List.find_map (fun (c, n) -> if n = s then Some c else None) codes

type error = {
  code : code;
  message : string;
  query : string option;
  span : span option;
  found : string option;
  expected : string list;
}

let error ?query ?span ?found ?(expected = []) code message =
  { code; message; query; span; found; expected }

let pp_error ppf e =
  Fmt.pf ppf "[%s] %s" (code_to_string e.code) e.message;
  Option.iter
    (fun s -> Fmt.pf ppf " at %a" Lexing_gen.Token.pp_position s)
    e.span;
  Option.iter (fun f -> Fmt.pf ppf ", found %s" f) e.found;
  if e.expected <> [] then
    Fmt.pf ppf ", expected %a" Fmt.(list ~sep:(any " | ") string) e.expected;
  Option.iter (fun q -> Fmt.pf ppf " in %S" q) e.query

let error_of_core ~query = function
  | Core.Lex_error le ->
    error ~query ~span:le.Lexing_gen.Scanner.pos Lex_error
      le.Lexing_gen.Scanner.message
  | Core.Parse_error pe ->
    (* [pp_error] renders span/found/expected from the structured fields;
       a verbose message here would print them twice. *)
    error ~query ~span:pe.Parser_gen.Engine.pos
      ~found:pe.Parser_gen.Engine.found
      ~expected:pe.Parser_gen.Engine.expected Parse_error "parse error"
  | e -> error ~query Internal (Fmt.str "%a" Core.pp_error e)

type selection =
  | Dialect of string
  | Features of string list
  | Digest of string

type hello = { client : string; selection : selection }

type hello_ok = {
  digest : string;
  label : string;
  features : int;
}

type mode = Cst | Recognize

type request = { id : int; mode : mode; statements : string list }

type cst = Text of string | Rows of Parser_gen.Rows.tree

type outcome =
  | Accepted of { tokens : int; cst : cst option }
  | Rejected of error

type reply_stats = {
  statements : int;
  accepted : int;
  rejected : int;
  tokens : int;
  elapsed_ns : int64;
}

type reply = { id : int; items : outcome list; stats : reply_stats }

type frame =
  | Hello of hello
  | Hello_ok of hello_ok
  | Request of request
  | Reply of reply
  | Error of error
  | Ping of string
  | Pong of string
  | Bye

let pp_frame ppf = function
  | Hello h -> Fmt.pf ppf "hello (client %S)" h.client
  | Hello_ok ok -> Fmt.pf ppf "hello-ok (%s, digest %s)" ok.label ok.digest
  | Request r ->
    Fmt.pf ppf "request #%d (%d statement(s))" r.id (List.length r.statements)
  | Reply r -> Fmt.pf ppf "reply #%d (%d item(s))" r.id (List.length r.items)
  | Error e -> Fmt.pf ppf "error %a" pp_error e
  | Ping p -> Fmt.pf ppf "ping %S" p
  | Pong p -> Fmt.pf ppf "pong %S" p
  | Bye -> Fmt.string ppf "bye"

type encoding = Binary | Json

let default_max_frame = 16 * 1024 * 1024

(* --- frame writer ------------------------------------------------------- *)

(* Frames are encoded into a growable byte array ({!Parser_gen.Out})
   rather than a [Buffer.t]: a frame's length prefix is only known once its
   payload is written, and bytes can be patched in place and handed to
   [write] without a copy. A CST carried as [Rows] is rendered straight
   into the frame, exactly the bytes a [Text] of its rendering would
   add. *)
module Out = Parser_gen.Out

type writer = Out.t

let initial_capacity = 256

(* A writer or reader that held a frame this large goes back to its
   initial capacity once the frame is done, so one outlier does not pin
   its memory for the rest of the connection. *)
let shrink_above = 1 lsl 20

let writer () = Out.create initial_capacity
let writer_capacity (w : writer) = Bytes.length w.buf
let reserve = Out.reserve
let add_char = Out.add_char
let add_string = Out.add_string

let output (w : writer) write =
  let off = ref 0 in
  while !off < w.len do
    off := !off + write w.buf !off (w.len - !off)
  done;
  if Bytes.length w.buf > shrink_above then w.buf <- Bytes.create initial_capacity

(* --- binary encoding --------------------------------------------------- *)

(* Frame tags. The length prefix of any legal frame begins with 0x00 (a
   frame would have to exceed 16 MiB for its high byte to be nonzero, and
   the default limit rejects that), so the first byte of a connection
   distinguishes binary (0x00) from JSON ('{'). *)
let tag_hello = 1
and tag_hello_ok = 2
and tag_request = 3
and tag_reply = 4
and tag_error = 5
and tag_ping = 6
and tag_pong = 7
and tag_bye = 8

let hello_version = 1

let put_u8 b v = add_char b (Char.unsafe_chr (v land 0xff))

let put_u32 (b : writer) v =
  reserve b 4;
  Bytes.set_int32_be b.buf b.len (Int32.of_int v);
  b.len <- b.len + 4

let put_u64 (b : writer) (v : int64) =
  reserve b 8;
  Bytes.set_int64_be b.buf b.len v;
  b.len <- b.len + 8

let put_str b s =
  put_u32 b (String.length s);
  add_string b s

let put_opt put b = function
  | None -> put_u8 b 0
  | Some v ->
    put_u8 b 1;
    put b v

let put_list put b xs =
  put_u32 b (List.length xs);
  List.iter (put b) xs

(* Hello and hello-ok keep the byte that once selected the parse engine
   (0–2), so older peers still decode: it is written as 0 and read back
   without effect, but a value no engine ever had is still malformed. *)
let put_legacy_engine b = put_u8 b 0
let put_mode b = function Cst -> put_u8 b 0 | Recognize -> put_u8 b 1

let put_span b (s : span) =
  put_u32 b s.Lexing_gen.Token.line;
  put_u32 b s.Lexing_gen.Token.column;
  put_u32 b s.Lexing_gen.Token.offset

let code_index c =
  let rec go i = function
    | [] -> assert false
    | (c', _) :: rest -> if c = c' then i else go (i + 1) rest
  in
  go 0 codes

let code_of_index i = Option.map fst (List.nth_opt codes i)

let put_error b e =
  put_u8 b (code_index e.code);
  put_str b e.message;
  put_opt put_str b e.query;
  put_opt put_span b e.span;
  put_opt put_str b e.found;
  put_list put_str b e.expected

(* Rendered rows are the same bytes as their [Text]: the length is
   patched in once the text is written. *)
let put_cst (b : writer) = function
  | Text s -> put_str b s
  | Rows t ->
    let at = b.len in
    put_u32 b 0;
    Parser_gen.Rows.render b ~json:false t;
    Bytes.set_int32_be b.buf at (Int32.of_int (b.len - at - 4))

let put_outcome b = function
  | Accepted { tokens; cst } ->
    put_u8 b 0;
    put_u32 b tokens;
    put_opt put_cst b cst
  | Rejected e ->
    put_u8 b 1;
    put_error b e

(* A reply's items are written as [produce] yields them, each ([Rows]
   rendered) before [produce] goes on; the item count is patched in once
   [produce] returns the stats, which follow the items. *)
let put_reply (b : writer) id produce =
  put_u8 b tag_reply;
  put_u32 b id;
  let count_at = b.len in
  put_u32 b 0;
  let count = ref 0 in
  let stats =
    produce (fun o ->
        incr count;
        put_outcome b o)
  in
  Bytes.set_int32_be b.buf count_at (Int32.of_int !count);
  put_u32 b stats.statements;
  put_u32 b stats.accepted;
  put_u32 b stats.rejected;
  put_u32 b stats.tokens;
  put_u64 b stats.elapsed_ns

(* A built reply as a producer. *)
let items_of r emit =
  List.iter emit r.items;
  r.stats

let put_selection b = function
  | Dialect name ->
    put_u8 b 0;
    put_str b name
  | Features names ->
    put_u8 b 1;
    put_list put_str b names
  | Digest hex ->
    put_u8 b 2;
    put_str b hex

let put_payload b = function
  | Hello h ->
    put_u8 b tag_hello;
    put_u8 b hello_version;
    put_str b h.client;
    put_legacy_engine b;
    put_selection b h.selection
  | Hello_ok ok ->
    put_u8 b tag_hello_ok;
    put_str b ok.digest;
    put_str b ok.label;
    put_u32 b ok.features;
    put_legacy_engine b
  | Request r ->
    put_u8 b tag_request;
    put_u32 b r.id;
    put_mode b r.mode;
    put_list put_str b r.statements
  | Reply r -> put_reply b r.id (items_of r)
  | Error e ->
    put_u8 b tag_error;
    put_error b e
  | Ping p ->
    put_u8 b tag_ping;
    put_str b p
  | Pong p ->
    put_u8 b tag_pong;
    put_str b p
  | Bye -> put_u8 b tag_bye

(* Four placeholder bytes for the length prefix, then the payload, then the
   prefix is patched in place: the frame leaves the writer without a
   copy. *)
let put_frame (b : writer) put =
  put_u32 b 0;
  put b;
  Bytes.set_int32_be b.buf 0 (Int32.of_int (b.len - 4))

(* --- binary decoding --------------------------------------------------- *)

(* Total decoding over untrusted bytes: every read is bounds-checked
   against the remaining input *before* any allocation sized by a wire
   integer, so hostile length fields fail cleanly instead of raising or
   triggering gigabyte allocations. [Fail] never escapes [decode]. *)
exception Fail of string

type source = { src : string; limit : int; mutable pos : int }

let fail fmt = Printf.ksprintf (fun m -> raise (Fail m)) fmt

let need c n what =
  if n < 0 || c.limit - c.pos < n then
    fail "truncated frame: %s needs %d byte(s), %d left" what n
      (c.limit - c.pos)

let get_u8 c what =
  need c 1 what;
  let v = Char.code c.src.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u32 c what =
  need c 4 what;
  let b i = Char.code c.src.[c.pos + i] in
  let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  c.pos <- c.pos + 4;
  v

let get_u64 c what =
  need c 8 what;
  let v = ref 0L in
  for i = 0 to 7 do
    v :=
      Int64.logor (Int64.shift_left !v 8)
        (Int64.of_int (Char.code c.src.[c.pos + i]))
  done;
  c.pos <- c.pos + 8;
  !v

let get_str c what =
  let n = get_u32 c what in
  need c n what;
  let s = String.sub c.src c.pos n in
  c.pos <- c.pos + n;
  s

let get_opt get c what =
  match get_u8 c what with
  | 0 -> None
  | 1 -> Some (get c what)
  | t -> fail "%s: bad option tag %d" what t

let get_list get c what =
  let n = get_u32 c what in
  (* Every element takes at least one byte on the wire, so a count beyond
     the remaining payload is a lie — reject it before allocating. *)
  need c n what;
  List.init n (fun _ -> get c what)

let skip_legacy_engine c what =
  let t = get_u8 c what in
  if t > 2 then fail "%s: bad engine %d" what t

let get_mode c what =
  match get_u8 c what with
  | 0 -> Cst
  | 1 -> Recognize
  | t -> fail "%s: bad mode %d" what t

let get_span c what : span =
  let line = get_u32 c what in
  let column = get_u32 c what in
  let offset = get_u32 c what in
  { Lexing_gen.Token.line; column; offset }

let get_error c =
  let code =
    let i = get_u8 c "error code" in
    match code_of_index i with
    | Some code -> code
    | None -> fail "bad error code %d" i
  in
  let message = get_str c "error message" in
  let query = get_opt get_str c "error query" in
  let span = get_opt get_span c "error span" in
  let found = get_opt get_str c "error found" in
  let expected = get_list get_str c "error expected" in
  { code; message; query; span; found; expected }

let get_outcome c _what =
  match get_u8 c "outcome tag" with
  | 0 ->
    let tokens = get_u32 c "outcome tokens" in
    let cst = get_opt (fun c what -> Text (get_str c what)) c "outcome cst" in
    Accepted { tokens; cst }
  | 1 -> Rejected (get_error c)
  | t -> fail "bad outcome tag %d" t

let get_selection c =
  match get_u8 c "selection tag" with
  | 0 -> Dialect (get_str c "selection dialect")
  | 1 -> Features (get_list get_str c "selection features")
  | 2 -> Digest (get_str c "selection digest")
  | t -> fail "bad selection tag %d" t

let get_payload c =
  let tag = get_u8 c "frame tag" in
  let frame =
    if tag = tag_hello then begin
      let version = get_u8 c "hello version" in
      if version <> hello_version then
        fail "unsupported hello version %d" version;
      let client = get_str c "hello client" in
      skip_legacy_engine c "hello engine";
      let selection = get_selection c in
      Hello { client; selection }
    end
    else if tag = tag_hello_ok then begin
      let digest = get_str c "hello-ok digest" in
      let label = get_str c "hello-ok label" in
      let features = get_u32 c "hello-ok features" in
      skip_legacy_engine c "hello-ok engine";
      Hello_ok { digest; label; features }
    end
    else if tag = tag_request then begin
      let id = get_u32 c "request id" in
      let mode = get_mode c "request mode" in
      let statements = get_list get_str c "request statements" in
      Request { id; mode; statements }
    end
    else if tag = tag_reply then begin
      let id = get_u32 c "reply id" in
      let items = get_list get_outcome c "reply items" in
      let statements = get_u32 c "stats statements" in
      let accepted = get_u32 c "stats accepted" in
      let rejected = get_u32 c "stats rejected" in
      let tokens = get_u32 c "stats tokens" in
      let elapsed_ns = get_u64 c "stats elapsed" in
      Reply
        { id; items;
          stats = { statements; accepted; rejected; tokens; elapsed_ns } }
    end
    else if tag = tag_error then Error (get_error c)
    else if tag = tag_ping then Ping (get_str c "ping payload")
    else if tag = tag_pong then Pong (get_str c "pong payload")
    else if tag = tag_bye then Bye
    else fail "unknown frame tag %d" tag
  in
  if c.pos <> c.limit then
    fail "frame has %d trailing byte(s)" (c.limit - c.pos);
  frame

let bad_frame message = { code = Bad_frame; message; query = None;
                          span = None; found = None; expected = [] }

let oversized limit len =
  {
    code = Oversized;
    message =
      Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" len limit;
    query = None;
    span = None;
    found = None;
    expected = [];
  }

(* The frame whose payload is [src.[pos .. limit - 1]]. *)
let payload_of src ~pos ~limit =
  match get_payload { src; limit; pos } with
  | frame -> Result.Ok frame
  | exception Fail m -> Result.Error (bad_frame m)

let decode ?(max_frame = default_max_frame) s =
  let c = { src = s; limit = String.length s; pos = 0 } in
  match get_u32 c "length prefix" with
  | exception Fail m -> Result.Error (bad_frame m)
  | len ->
    if len > max_frame then Result.Error (oversized max_frame len)
    else if len = 0 then Result.Error (bad_frame "empty frame")
    else if c.limit - c.pos < len then
      Result.Error
        (bad_frame
           (Printf.sprintf
              "truncated frame: frame payload needs %d byte(s), %d left" len
              (c.limit - c.pos)))
    else
      match payload_of s ~pos:c.pos ~limit:(c.pos + len) with
      | Result.Ok _ when c.pos + len <> c.limit ->
        Result.Error (bad_frame "trailing bytes after frame")
      | result -> result

(* --- JSON encoding ------------------------------------------------------ *)

(* The debug encoding: one frame per line. Strings escape every byte
   outside printable ASCII as \u00XX, so arbitrary payloads (newlines, NUL,
   raw UTF-8) survive the line discipline and round-trip bytewise. *)

let jstr s b =
  add_char b '"';
  Out.add_json b s 0 (String.length s);
  add_char b '"'

let json_fields b fields =
  add_char b '{';
  List.iteri
    (fun i (k, emit) ->
      if i > 0 then add_char b ',';
      jstr k b;
      add_char b ':';
      emit b)
    fields;
  add_char b '}'

let jint (n : int) b = add_string b (string_of_int n)
let jarr emit xs b =
  add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then add_char b ',';
      emit x b)
    xs;
  add_char b ']'

let jmode m = jstr (match m with Cst -> "cst" | Recognize -> "recognize")

let jspan (s : span) b =
  json_fields b
    [
      ("line", jint s.Lexing_gen.Token.line);
      ("column", jint s.Lexing_gen.Token.column);
      ("offset", jint s.Lexing_gen.Token.offset);
    ]

let jerror e b =
  json_fields b
    (("code", jstr (code_to_string e.code))
     :: ("message", jstr e.message)
     :: (match e.query with None -> [] | Some q -> [ ("query", jstr q) ])
    @ (match e.span with None -> [] | Some s -> [ ("span", jspan s) ])
    @ (match e.found with None -> [] | Some f -> [ ("found", jstr f) ])
    @ [ ("expected", jarr jstr e.expected) ])

let jcst cst b =
  match cst with
  | Text s -> jstr s b
  | Rows t ->
    add_char b '"';
    Parser_gen.Rows.render b ~json:true t;
    add_char b '"'

let joutcome o b =
  match o with
  | Accepted { tokens; cst } ->
    json_fields b
      (("tokens", jint tokens)
      :: (match cst with None -> [] | Some c -> [ ("cst", jcst c) ]))
  | Rejected e -> json_fields b [ ("error", jerror e) ]

(* [put_reply]'s JSON twin: the ["items"] array is written as [produce]
   yields them, and the ["stats"] member after it. *)
let json_reply b id produce =
  let stats = ref None in
  let items b =
    add_char b '[';
    let first = ref true in
    stats :=
      Some
        (produce (fun o ->
             if not !first then add_char b ',';
             first := false;
             joutcome o b));
    add_char b ']'
  in
  let jstats b =
    let s = Option.get !stats in
    json_fields b
      [
        ("statements", jint s.statements);
        ("accepted", jint s.accepted);
        ("rejected", jint s.rejected);
        ("tokens", jint s.tokens);
        ("elapsed_ns", jstr (Int64.to_string s.elapsed_ns));
      ]
  in
  json_fields b
    [ ("frame", jstr "reply"); ("id", jint id); ("items", items); ("stats", jstats) ]

let jselection sel b =
  match sel with
  | Dialect name -> json_fields b [ ("dialect", jstr name) ]
  | Features names -> json_fields b [ ("features", jarr jstr names) ]
  | Digest hex -> json_fields b [ ("digest", jstr hex) ]

let json_frame b frame =
  (match frame with
  | Hello h ->
    json_fields b
      [
        ("frame", jstr "hello");
        ("version", jint hello_version);
        ("client", jstr h.client);
        ("selection", jselection h.selection);
      ]
  | Hello_ok ok ->
    json_fields b
      [
        ("frame", jstr "hello_ok");
        ("digest", jstr ok.digest);
        ("label", jstr ok.label);
        ("features", jint ok.features);
      ]
  | Request r ->
    json_fields b
      [
        ("frame", jstr "request");
        ("id", jint r.id);
        ("mode", jmode r.mode);
        ("statements", jarr jstr r.statements);
      ]
  | Reply r -> json_reply b r.id (items_of r)
  | Error e -> json_fields b [ ("frame", jstr "error"); ("error", jerror e) ]
  | Ping p -> json_fields b [ ("frame", jstr "ping"); ("payload", jstr p) ]
  | Pong p -> json_fields b [ ("frame", jstr "pong"); ("payload", jstr p) ]
  | Bye -> json_fields b [ ("frame", jstr "bye") ]);
  add_char b '\n'

(* --- one encoder -------------------------------------------------------- *)

let encode_into (w : writer) enc frame =
  w.len <- 0;
  match enc with
  | Binary -> put_frame w (fun b -> put_payload b frame)
  | Json -> json_frame w frame

let encode_reply_into (w : writer) enc ~id produce =
  w.len <- 0;
  match enc with
  | Binary -> put_frame w (fun b -> put_reply b id produce)
  | Json ->
    json_reply w id produce;
    add_char w '\n'

let cst_text = function
  | Text s -> s
  | Rows t ->
    let o = Out.create initial_capacity in
    Parser_gen.Rows.render o ~json:false t;
    Out.contents o

let encode_as enc frame =
  let w = writer () in
  encode_into w enc frame;
  Out.contents w

let encode = encode_as Binary
let encode_json = encode_as Json

let encode_items items =
  let w = writer () in
  put_list put_outcome w items;
  Out.contents w

(* --- JSON decoding ------------------------------------------------------ *)

(* A tiny total JSON reader (the same recursive-descent shape as the bench
   report's): only what the frames above need, every failure a [Fail]. *)

type jvalue =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of jvalue list
  | Jobj of (string * jvalue) list

let jskip_ws c =
  while
    c.pos < c.limit
    && (match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    c.pos <- c.pos + 1
  done

let jexpect c ch =
  jskip_ws c;
  if c.pos < c.limit && c.src.[c.pos] = ch then c.pos <- c.pos + 1
  else fail "expected %C at %d" ch c.pos

let jstring c =
  jexpect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    if c.pos >= c.limit then fail "unterminated string"
    else
      match c.src.[c.pos] with
      | '"' -> c.pos <- c.pos + 1
      | '\\' ->
        if c.pos + 1 >= c.limit then fail "bad escape";
        (match c.src.[c.pos + 1] with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if c.pos + 5 >= c.limit then fail "bad unicode escape";
          let hex = String.sub c.src (c.pos + 2) 4 in
          (match int_of_string_opt ("0x" ^ hex) with
          | Some v ->
            (* Our encoder only emits \u00XX (one escaped byte); anything
               above that folds to its low byte rather than failing, so
               foreign encoders still get *a* decode. *)
            Buffer.add_char b (Char.chr (v land 0xff))
          | None -> fail "bad unicode escape %S" hex);
          c.pos <- c.pos + 4
        | e -> fail "bad escape \\%C" e);
        c.pos <- c.pos + 2;
        go ()
      | ch ->
        Buffer.add_char b ch;
        c.pos <- c.pos + 1;
        go ()
  in
  go ();
  Buffer.contents b

let jnumber c =
  let start = c.pos in
  let numch = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.pos < c.limit && numch c.src.[c.pos] do
    c.pos <- c.pos + 1
  done;
  match float_of_string_opt (String.sub c.src start (c.pos - start)) with
  | Some f -> f
  | None -> fail "bad number at %d" start

let jliteral c word v =
  let n = String.length word in
  if c.pos + n <= c.limit && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    v
  end
  else fail "bad literal at %d" c.pos

let rec jvalue c =
  jskip_ws c;
  if c.pos >= c.limit then fail "unexpected end of input"
  else
    match c.src.[c.pos] with
    | '{' ->
      c.pos <- c.pos + 1;
      jskip_ws c;
      if c.pos < c.limit && c.src.[c.pos] = '}' then begin
        c.pos <- c.pos + 1;
        Jobj []
      end
      else begin
        let rec members acc =
          jskip_ws c;
          let key = jstring c in
          jexpect c ':';
          let v = jvalue c in
          jskip_ws c;
          if c.pos >= c.limit then fail "unterminated object"
          else
            match c.src.[c.pos] with
            | ',' ->
              c.pos <- c.pos + 1;
              members ((key, v) :: acc)
            | '}' ->
              c.pos <- c.pos + 1;
              Jobj (List.rev ((key, v) :: acc))
            | ch -> fail "expected , or } but found %C" ch
        in
        members []
      end
    | '[' ->
      c.pos <- c.pos + 1;
      jskip_ws c;
      if c.pos < c.limit && c.src.[c.pos] = ']' then begin
        c.pos <- c.pos + 1;
        Jarr []
      end
      else begin
        let rec elements acc =
          let v = jvalue c in
          jskip_ws c;
          if c.pos >= c.limit then fail "unterminated array"
          else
            match c.src.[c.pos] with
            | ',' ->
              c.pos <- c.pos + 1;
              elements (v :: acc)
            | ']' ->
              c.pos <- c.pos + 1;
              Jarr (List.rev (v :: acc))
            | ch -> fail "expected , or ] but found %C" ch
        in
        elements []
      end
    | '"' -> Jstr (jstring c)
    | 't' -> jliteral c "true" (Jbool true)
    | 'f' -> jliteral c "false" (Jbool false)
    | 'n' -> jliteral c "null" Jnull
    | _ -> Jnum (jnumber c)

let jmember key = function
  | Jobj kvs -> List.assoc_opt key kvs
  | _ -> None

let jget_str what = function
  | Some (Jstr s) -> s
  | _ -> fail "missing or non-string %s" what

let jget_int what = function
  | Some (Jnum f) ->
    let i = int_of_float f in
    if float_of_int i <> f || i < 0 then fail "non-integer %s" what else i
  | _ -> fail "missing or non-numeric %s" what

let jget_strlist what = function
  | Some (Jarr xs) ->
    List.map (function Jstr s -> s | _ -> fail "non-string in %s" what) xs
  | _ -> fail "missing or non-array %s" what

let jget_span = function
  | Jobj _ as o ->
    {
      Lexing_gen.Token.line = jget_int "span line" (jmember "line" o);
      column = jget_int "span column" (jmember "column" o);
      offset = jget_int "span offset" (jmember "offset" o);
    }
  | _ -> fail "non-object span"

let jget_error = function
  | Jobj _ as o ->
    let code =
      let s = jget_str "error code" (jmember "code" o) in
      match code_of_string s with
      | Some c -> c
      | None -> fail "unknown error code %S" s
    in
    {
      code;
      message = jget_str "error message" (jmember "message" o);
      query = Option.map (fun v -> jget_str "query" (Some v)) (jmember "query" o);
      span = Option.map jget_span (jmember "span" o);
      found = Option.map (fun v -> jget_str "found" (Some v)) (jmember "found" o);
      expected = jget_strlist "expected" (jmember "expected" o);
    }
  | _ -> fail "non-object error"

let jget_outcome = function
  | Jobj _ as o -> (
    match jmember "error" o with
    | Some e -> Rejected (jget_error e)
    | None ->
      Accepted
        {
          tokens = jget_int "outcome tokens" (jmember "tokens" o);
          cst =
            Option.map
              (fun v -> Text (jget_str "cst" (Some v)))
              (jmember "cst" o);
        })
  | _ -> fail "non-object outcome"

let jget_selection = function
  | Jobj _ as o -> (
    match (jmember "dialect" o, jmember "features" o, jmember "digest" o) with
    | Some d, None, None -> Dialect (jget_str "dialect" (Some d))
    | None, Some _, None -> Features (jget_strlist "features" (jmember "features" o))
    | None, None, Some d -> Digest (jget_str "digest" (Some d))
    | _ -> fail "selection needs exactly one of dialect/features/digest")
  | _ -> fail "non-object selection"

let frame_of_jvalue o =
  match jget_str "frame kind" (jmember "frame" o) with
  | "hello" ->
    let version = jget_int "hello version" (jmember "version" o) in
    if version <> hello_version then fail "unsupported hello version %d" version;
    Hello
      {
        client = jget_str "client" (jmember "client" o);
        selection =
          (match jmember "selection" o with
          | Some s -> jget_selection s
          | None -> fail "missing selection");
      }
  | "hello_ok" ->
    Hello_ok
      {
        digest = jget_str "digest" (jmember "digest" o);
        label = jget_str "label" (jmember "label" o);
        features = jget_int "features" (jmember "features" o);
      }
  | "request" ->
    Request
      {
        id = jget_int "id" (jmember "id" o);
        mode =
          (match jget_str "mode" (jmember "mode" o) with
          | "cst" -> Cst
          | "recognize" -> Recognize
          | m -> fail "bad mode %S" m);
        statements = jget_strlist "statements" (jmember "statements" o);
      }
  | "reply" ->
    let stats =
      match jmember "stats" o with
      | Some (Jobj _ as s) ->
        {
          statements = jget_int "stats statements" (jmember "statements" s);
          accepted = jget_int "stats accepted" (jmember "accepted" s);
          rejected = jget_int "stats rejected" (jmember "rejected" s);
          tokens = jget_int "stats tokens" (jmember "tokens" s);
          elapsed_ns =
            (let raw = jget_str "stats elapsed_ns" (jmember "elapsed_ns" s) in
             match Int64.of_string_opt raw with
             | Some v when v >= 0L -> v
             | _ -> fail "bad elapsed_ns %S" raw);
        }
      | _ -> fail "missing reply stats"
    in
    Reply
      {
        id = jget_int "id" (jmember "id" o);
        items =
          (match jmember "items" o with
          | Some (Jarr xs) -> List.map jget_outcome xs
          | _ -> fail "missing reply items");
        stats;
      }
  | "error" -> (
    match jmember "error" o with
    | Some e -> Error (jget_error e)
    | None -> fail "missing error body")
  | "ping" -> Ping (jget_str "payload" (jmember "payload" o))
  | "pong" -> Pong (jget_str "payload" (jmember "payload" o))
  | "bye" -> Bye
  | k -> fail "unknown frame kind %S" k

(* The JSON frame in [src.[0 .. limit - 1]]. *)
let json_of ~max_frame src ~limit =
  if limit > max_frame + 1 then Result.Error (oversized max_frame limit)
  else
    let c = { src; limit; pos = 0 } in
    match
      let v = jvalue c in
      jskip_ws c;
      if c.pos <> c.limit then fail "trailing bytes after frame"
      else frame_of_jvalue v
    with
    | frame -> Result.Ok frame
    | exception Fail m -> Result.Error (bad_frame m)

let decode_json ?(max_frame = default_max_frame) s =
  json_of ~max_frame s ~limit:(String.length s)

let decode_as ?max_frame = function
  | Binary -> decode ?max_frame
  | Json -> decode_json ?max_frame

(* --- buffered reader ----------------------------------------------------- *)

(* Bytes are read straight into [buf], and a frame is decoded where it
   lies: the only copies of a reply are the strings its decoder builds.
   [buf] doubles only when it is full, so it grows with bytes actually
   received, never from a length prefix. *)
type reader = {
  read : bytes -> int -> int -> int;
  mutable buf : bytes;
  mutable len : int;  (* bytes buffered, from 0 *)
  max_frame : int;
  mutable enc : encoding option;
  mutable eof : bool;
}

let reader_capacity = 4096

let reader ?(max_frame = default_max_frame) read =
  { read; buf = Bytes.create reader_capacity; len = 0; max_frame; enc = None;
    eof = false }

let reader_encoding r = r.enc

(* One refill step: [true] if bytes arrived. [Unix.read] exceptions are
   treated as end-of-stream: whether the peer reset or vanished mid-frame,
   the caller sees the same truncation discipline. *)
let refill r =
  if r.eof then false
  else begin
    if r.len = Bytes.length r.buf then begin
      let bigger = Bytes.create (2 * r.len) in
      Bytes.blit r.buf 0 bigger 0 r.len;
      r.buf <- bigger
    end;
    let n =
      try r.read r.buf r.len (Bytes.length r.buf - r.len) with
      | Unix.Unix_error _ | Sys_error _ | End_of_file -> 0
    in
    if n = 0 then begin
      r.eof <- true;
      false
    end
    else begin
      r.len <- r.len + n;
      true
    end
  end

(* Drop the first [n] buffered bytes, moving the rest to the front. A
   frame over [shrink_above] also gives back the memory it made the buffer
   grow to. *)
let consume r n =
  let rest = r.len - n in
  if n > shrink_above then begin
    let smaller = Bytes.create (max reader_capacity rest) in
    Bytes.blit r.buf n smaller 0 rest;
    r.buf <- smaller
  end
  else Bytes.blit r.buf n r.buf 0 rest;
  r.len <- rest

(* The frame that ends at [limit] in the buffer, decoded in place by
   [decode], then dropped from the buffer. The buffer is only read until
   [decode] returns, and the strings it builds are copies. *)
let take r ~limit ~drop decode =
  let frame = decode (Bytes.unsafe_to_string r.buf) ~limit in
  consume r drop;
  Result.map Option.some frame

let rec read_frame r =
  match r.enc with
  | None ->
    if r.len > 0 || refill r then begin
      r.enc <- Some (if Bytes.get r.buf 0 = '{' then Json else Binary);
      read_frame r
    end
    else Result.Ok None
  | Some Binary -> read_binary r
  | Some Json -> read_json r

and read_binary r =
  if r.len >= 4 then begin
    let b i = Char.code (Bytes.get r.buf i) in
    let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if len > r.max_frame then Result.Error (oversized r.max_frame len)
    else if len = 0 then Result.Error (bad_frame "empty frame")
    else if r.len >= 4 + len then
      take r ~limit:(4 + len) ~drop:(4 + len) (payload_of ~pos:4)
    else if refill r then read_binary r
    else
      Result.Error
        (bad_frame
           (Printf.sprintf
              "stream ended mid-frame: %d of %d payload byte(s) received"
              (r.len - 4) len))
  end
  else if refill r then read_binary r
  else if r.len = 0 then Result.Ok None
  else
    Result.Error
      (bad_frame
         (Printf.sprintf "stream ended mid-frame: %d header byte(s) received"
            r.len))

(* [from] bytes of the buffer are already known to hold no newline. *)
and read_json ?(from = 0) r =
  let rec newline i =
    if i >= r.len then -1 else if Bytes.get r.buf i = '\n' then i else newline (i + 1)
  in
  match newline from with
  | -1 ->
    let scanned = r.len in
    if scanned > r.max_frame then Result.Error (oversized r.max_frame scanned)
    else if refill r then read_json ~from:scanned r
    else if r.len = 0 then Result.Ok None
    else
      Result.Error
        (bad_frame
           (Printf.sprintf "stream ended mid-frame: %d byte(s) without newline"
              r.len))
  | i -> take r ~limit:i ~drop:(i + 1) (json_of ~max_frame:r.max_frame)

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

(* --- encoding ------------------------------------------------------------ *)

let tag_hello = 1
and tag_hello_ok = 2
and tag_request = 3
and tag_reply = 4
and tag_error = 5
and tag_ping = 6
and tag_pong = 7
and tag_bye = 8

let hello_version = 2

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
    Parser_gen.Rows.render b t;
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
    put_selection b h.selection
  | Hello_ok ok ->
    put_u8 b tag_hello_ok;
    put_str b ok.digest;
    put_str b ok.label;
    put_u32 b ok.features
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

(* --- decoding ------------------------------------------------------------ *)

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
      let selection = get_selection c in
      Hello { client; selection }
    end
    else if tag = tag_hello_ok then begin
      let digest = get_str c "hello-ok digest" in
      let label = get_str c "hello-ok label" in
      let features = get_u32 c "hello-ok features" in
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

(* --- encoders ------------------------------------------------------------ *)

let encode_into (w : writer) frame =
  w.len <- 0;
  put_frame w (fun b -> put_payload b frame)

let encode_reply_into (w : writer) ~id produce =
  w.len <- 0;
  put_frame w (fun b -> put_reply b id produce)

let cst_text = function
  | Text s -> s
  | Rows t ->
    let o = Out.create initial_capacity in
    Parser_gen.Rows.render o t;
    Out.contents o

let encode frame =
  let w = writer () in
  encode_into w frame;
  Out.contents w

let encode_items items =
  let w = writer () in
  put_list put_outcome w items;
  Out.contents w

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
  mutable eof : bool;
}

let reader_capacity = 4096

let reader ?(max_frame = default_max_frame) read =
  { read; buf = Bytes.create reader_capacity; len = 0; max_frame; eof = false }

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

(* A frame whose payload is all buffered is decoded where it lies, then
   dropped from the buffer: the buffer is only read until [payload_of]
   returns, and the strings it builds are copies. *)
let rec read_frame r =
  if r.len >= 4 then begin
    let b i = Char.code (Bytes.get r.buf i) in
    let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if len > r.max_frame then Result.Error (oversized r.max_frame len)
    else if len = 0 then Result.Error (bad_frame "empty frame")
    else if r.len >= 4 + len then begin
      let frame =
        payload_of (Bytes.unsafe_to_string r.buf) ~pos:4 ~limit:(4 + len)
      in
      consume r (4 + len);
      Result.map Option.some frame
    end
    else if refill r then read_frame r
    else
      Result.Error
        (bad_frame
           (Printf.sprintf
              "stream ended mid-frame: %d of %d payload byte(s) received"
              (r.len - 4) len))
  end
  else if refill r then read_frame r
  else if r.len = 0 then Result.Ok None
  else
    Result.Error
      (bad_frame
         (Printf.sprintf "stream ended mid-frame: %d header byte(s) received"
            r.len))

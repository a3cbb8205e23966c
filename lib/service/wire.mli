(** Wire protocol of the parser service.

    [sqlpl serve] speaks length-prefixed binary frames over TCP or Unix
    sockets, and nothing else: bytes that are not a frame (a line of JSON,
    say, whose first four bytes read as a length prefix far over the
    limit) draw the decoder's structured {!error}, and the server closes
    the connection. For raw debugging over [nc], [sqlpl serve --stream]
    accepts unframed SQL (see {!Server}).

    {2 Frame layout}

    {v
    frame     := u32(len) u8(tag) payload[len-1]     len = |tag+payload|
    str       := u32(n) byte[n]                      bytes are opaque
    opt(x)    := u8(0) | u8(1) x
    list(x)   := u32(n) x*n
    u32/u64   — big-endian
    hello     := u8(1) u8(version = 2) str(client) selection
    hello_ok  := u8(2) str(digest) str(label) u32(features)
    v}

    Every integer field is bounds-checked against the remaining payload
    before anything is allocated, so decoding arbitrary bytes returns a
    structured {!error} — it never raises and never over-allocates.

    {2 Error discipline}

    Modeled on [ocaml-mssql]'s [Mssql_error]: a wire error always carries
    enough to act on without the server's logs — a machine-readable
    {!code}, a human message, and (whenever the failure concerns a
    statement) the offending query text, the source {!span}, the token
    found there and the decoded expected set. *)

type address =
  | Tcp of string * int  (** host, port *)
  | Unix_socket of string  (** filesystem path *)

val pp_address : address Fmt.t

type span = Lexing_gen.Token.position

type code =
  | Bad_frame  (** malformed or truncated frame *)
  | Oversized  (** length prefix beyond the connection's frame limit *)
  | Bad_hello  (** first frame was not a well-formed [Hello] *)
  | Unknown_dialect
  | Invalid_config  (** selection failed validation or composition *)
  | Unknown_digest  (** [Digest] hello names no resident front-end *)
  | Lex_error
  | Parse_error
  | Unsupported  (** well-formed frame the peer does not serve *)
  | Io  (** transport-level failure: refused, reset, unexpected EOF *)
  | Internal

val code_to_string : code -> string

type error = {
  code : code;
  message : string;
  query : string option;  (** the offending statement, verbatim *)
  span : span option;  (** failure position within [query] *)
  found : string option;  (** token kind found at [span] *)
  expected : string list;  (** decoded expected set, sorted *)
}

val error : ?query:string -> ?span:span -> ?found:string ->
  ?expected:string list -> code -> string -> error

val pp_error : error Fmt.t

val error_of_core : query:string -> Core.error -> error
(** Attach the statement to a library error: lex and parse errors keep
    their span/found/expected, anything else maps to {!Internal}. *)

type selection =
  | Dialect of string  (** a shipped dialect, by name *)
  | Features of string list  (** explicit features, closed server-side *)
  | Digest of string  (** hex digest of a front-end already resident in the
                          server's cache *)

type hello = { client : string; selection : selection }
(** A hello of any version but 2 is a {!Bad_frame}. *)

type hello_ok = {
  digest : string;  (** canonical config digest, hex *)
  label : string;
  features : int;
}

type mode =
  | Cst  (** parse and return the rendered concrete syntax tree *)
  | Recognize  (** accept/reject with token counts only *)

type request = { id : int; mode : mode; statements : string list }

(** An accepted statement's tree. The daemon's replies carry the parse's
    [Rows], which the encoders render straight into the frame; a decoded
    or library-built reply carries the [Text]. [Rows t] and
    [Text (Fmt.str "%a" Cst.pp (Rows.to_cst t))] encode to the same
    bytes. *)
type cst =
  | Text of string  (** [Fmt.str "%a" Parser_gen.Cst.pp] of the tree *)
  | Rows of Parser_gen.Rows.tree
      (** a parse's rows, valid only until the next parse on the domain
          (see {!Parser_gen.Rows}): encode them before parsing on *)

val cst_text : cst -> string
(** The tree's text: a [Text] as it is, [Rows] rendered. *)

type outcome =
  | Accepted of { tokens : int; cst : cst option }
      (** [cst] is the tree in {!Cst} mode, [None] in {!Recognize} mode *)
  | Rejected of error

type reply_stats = {
  statements : int;
  accepted : int;
  rejected : int;
  tokens : int;
  elapsed_ns : int64;
      (** server-side wall time spent parsing: the sum of the
          statements' parse spans. Each tree is rendered into the reply
          between two spans, and that rendering is not included *)
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

val pp_frame : frame Fmt.t

(** {1 Codecs} *)

val default_max_frame : int
(** 16 MiB. *)

(** A reusable frame buffer. {!encode_into} replaces its contents with one
    frame and {!output} writes them, so a connection that keeps one writer
    encodes every reply without allocating a buffer per frame: [Rows] are
    rendered straight into the frame, and no per-statement string is
    built. *)
type writer

val writer : unit -> writer

val encode_into : writer -> frame -> unit
(** [encode_into w frame] replaces [w]'s contents with the complete
    frame, length prefix included. {!encode} is this encoder into a fresh
    writer. *)

val encode_reply_into :
  writer -> id:int -> ((outcome -> unit) -> reply_stats) -> unit
(** [encode_reply_into w ~id produce] replaces [w]'s contents with a
    complete [Reply] frame. [produce emit] yields the items through
    [emit], which encodes each one (rendering [Rows]) before it returns,
    and then returns the stats, which are written after the items.
    A producer that parses a statement and emits its outcome before
    parsing the next can emit the parse's [Rows] and never holds more than
    one tree. [encode_into w (Reply r)] is this encoder over [r.items].
    An exception from
    [produce] propagates and leaves [w] holding part of a frame, which the
    next encode into [w] replaces. *)

val output : writer -> (bytes -> int -> int -> int) -> unit
(** [output w write] hands [w]'s frame to [write] ([Unix.write]'s contract)
    until all of it is written; exceptions from [write] propagate. A
    writer that grew past 1 MiB then returns to its initial capacity, so
    one outlier reply does not pin its memory for the rest of the
    connection. *)

val writer_capacity : writer -> int
(** Bytes the writer's frame buffer currently holds room for. *)

val encode : frame -> string
(** The complete frame, length prefix included. *)

val decode : ?max_frame:int -> string -> (frame, error) result
(** Decode exactly one frame; trailing bytes are a {!Bad_frame}.
    Total, never raises. An accepted outcome's tree decodes as [Text]. *)

val encode_items : outcome list -> string
(** Canonical byte encoding of a reply's items section — the determinism
    tests compare server replies against library results on these exact
    bytes. *)

(** {1 Buffered frame reader}

    Pulls frames out of a byte stream via a [read] function with
    [Unix.read]'s contract ([read buf off len] returns [0] at end of
    stream). Bytes are read straight into the reader's buffer and each
    frame is decoded where it lies, with the same total, bounds-checked
    decoder as {!decode}: a reply's only copies are its decoded strings. The
    buffer grows only with bytes received, and once a frame over 1 MiB has
    been consumed it returns to its initial capacity. *)

type reader

val reader : ?max_frame:int -> (bytes -> int -> int -> int) -> reader

val read_frame : reader -> (frame option, error) result
(** The next frame; [Ok None] on a clean end of stream at a frame
    boundary. A stream ending mid-frame is a {!Bad_frame}, a length prefix
    beyond the limit an {!Oversized}, and an I/O exception from [read] an
    {!Io} — all returned, never raised. *)

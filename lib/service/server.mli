(** The [sqlpl serve] daemon.

    A long-running parser service speaking the {!Wire} protocol over TCP or
    Unix sockets. The process model mirrors {!Session.parse_batch}'s domain
    sharding, lifted from statements to connections: one acceptor domain
    deals incoming connections onto a shared queue, and a pool of worker
    domains each serves one connection to completion at a time — so up to
    [workers] connections parse truly in parallel, all sharing the one
    config-keyed front-end {!Cache} (every mutation of which is serialized
    behind the server's lock).

    {2 Connection lifecycle}

    - every frame either way is a binary {!Wire} frame; bytes that are
      not one (a line of JSON, say) draw a structured [Error]
      ([oversized] or [bad_frame]) and the close;
    - the first frame must be a [Hello] carrying the client's
      configuration selection (dialect name, explicit feature list, or
      the hex digest of a front-end already resident in the cache); the
      server resolves it through the shared cache and answers [Hello_ok]
      with the canonical digest — or a structured [Error]
      ([unknown_dialect], [invalid_config], [unknown_digest], [bad_hello])
      and closes;
    - each [Request] is answered by one [Reply] ({!reply_into}): its
      statements are parsed one at a time through {!Session.each} on the
      pinned front-end, and each outcome is written into the reply frame
      before the next statement is parsed — in [cst] mode the parse's
      rows are rendered into the frame before the next parse reuses their
      arena (no [Cst.t] is built), in [recognize] mode no row is built. The items are byte-identical to the library results:
      accepted statements carry token counts (and the rendered CST in
      [cst] mode), rejected ones a wire error with the query text, span,
      found token and decoded expected set attached. A statement that
      raises discards the partial reply and draws one [Internal] error
      frame; the connection goes on serving;
    - [Ping] answers [Pong]; [Bye] or end-of-stream closes. A malformed or
      oversized frame draws a best-effort structured [Error] before the
      close. No client behavior — disconnects mid-frame, dribbled writes,
      hostile length prefixes, poisoned statements — takes the daemon or
      any other connection down.

    {2 Raw streaming mode}

    When the server was started with [~stream:true], a connection whose
    first byte is ['S'] bypasses the framed protocol entirely: the client
    sends one header line [<dialect>\n] followed by raw SQL bytes until it shuts down its
    write side. The server pipes the bytes through
    {!Session.parse_stream} on the recognizer, so no tree is built —
    statements split at top-level [;] exactly
    like {!Core.split_statements}, memory bounded by the chunk size plus
    the largest statement — answering one [ok <tokens>] or
    [err <message>] line per statement as it completes, then a final
    [done <statements> <tokens> <rejected>] line. A bad header draws one
    [err ...] line and the close. *)

type t

val start :
  ?workers:int ->
  ?backlog:int ->
  ?max_frame:int ->
  ?stream:bool ->
  ?cache:Cache.t ->
  Wire.address ->
  (t, string) result
(** Bind, listen and spin up the acceptor + worker pool. [workers]
    (default [4], clipped to at least [1]) is the number of connections
    served in parallel; [max_frame] (default {!Wire.default_max_frame})
    bounds accepted frames. [stream] (default [false]) additionally
    accepts raw streaming connections (see the lifecycle notes above).
    [cache] (a fresh one per server by default) is shared by every
    connection, so concurrent sessions on one configuration compose it
    exactly once. Binding a TCP port that is already in use — or a Unix
    path whose socket file exists — fails with a clean [Error] naming the
    address; nothing is left running. *)

val address : t -> Wire.address
(** The bound address. For TCP requests with port [0] this carries the
    port actually allocated. *)

val cache : t -> Cache.t

type stats = {
  connections : int;  (** accepted since start *)
  active : int;       (** currently being served *)
  requests : int;     (** parse requests answered *)
  wire_errors : int;  (** structured errors sent (protocol faults included) *)
}

val stats : t -> stats
(** A consistent snapshot; safe from any domain. *)

val stop : t -> unit
(** Shut down: stop accepting, interrupt in-flight connections, join every
    domain, and unlink the Unix socket path if one was bound. Idempotent. *)

val outcome_of_item : Wire.mode -> Session.item -> Wire.outcome
(** The library-result-to-wire mapping of a built reply — exposed so the
    determinism tests and the ledger can render {!Session.parse_batch}
    output locally and demand byte equality with what came over the wire.
    In {!Wire.Cst} mode an accepted item carries
    [Wire.Text (Fmt.str "%a" Cst.pp tree)]: the oracle printer, not the
    rows renderer {!reply_into} writes with, so that equality checks the
    daemon against an independent rendering. *)

val reply_into : Session.t -> Wire.writer -> Wire.request -> unit
(** [reply_into session w request] replaces [w]'s contents with the
    [Reply] frame the daemon sends for [request]: {!Session.each} feeds
    {!Wire.encode_reply_into}, so each statement's outcome is encoded
    before the next statement is parsed. [Cst] requests parse with
    {!Core.parse_rows_counted} and render each tree's rows ({!Wire.Rows})
    into the frame, so no [Cst.t] is built; the items are byte for byte
    those of {!outcome_of_item}. [Recognize] requests run
    {!Core.recognize_counted} and build no tree.
    The stats' [elapsed_ns] is parse time only. An exception from a
    statement propagates, leaving a partial frame in [w]. *)

val stream_lines :
  Session.t ->
  read:(bytes -> int -> int -> int) ->
  write:(string -> unit) ->
  Session.stats
(** The raw streaming mode's body: {!Session.parse_stream} over [read] on
    the recognizer (no tree is built), writing each statement's
    {!stream_line_of_item} as it completes. The [done] line is left to
    the caller. *)

val stream_line_of_item : _ Session.parsed -> string
(** The exact per-statement line of the raw streaming mode
    ([ok <tokens>\n] / [err <flattened message>\n]) — exposed so tests can
    render {!Session.parse_stream} output locally and demand byte equality
    with what came over the socket. *)

val stream_done_line : Session.stats -> string
(** The final [done <statements> <tokens> <rejected>\n] line. *)

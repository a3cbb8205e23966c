(** Generated scanners.

    [create] compiles a composed token set into a scanner value. The scanner
    skips SQL whitespace and comments ([-- ...] to end of line and
    [/* ... */]). Keywords are matched case-insensitively and only when
    declared in the set: in a dialect whose selected features never declare
    [WINDOW], the word [window] scans as a plain identifier.

    The compiled scanner is interned: keyword lookup goes through a
    case-folding hash table probed directly on the input (no substring or
    lowercasing allocation), punctuation dispatch through a table indexed by
    first character (longest match within the bucket), and every emitted
    token carries the dense [kind_id] of its terminal in the scanner's
    {!Interner}. Pass [?interner] to share one interner between the scanner
    and the generated parser (as {!Core.generate} does), so token ids can be
    trusted without re-hashing kind strings. A scanner is immutable after
    [create] and safe to share across domains.

    The primitive scan is {!scan_soa}: it fills a reusable per-domain
    struct-of-arrays buffer with one [(kind_id, start, stop)] triple per
    token plus a newline index, allocating nothing per token. [Token.t]
    records — text strings and line/column positions included — are
    materialized on demand from that buffer: one at a time
    ({!token_of_soa}: what a parse's rows materialize their leaves and
    error positions from), or all at once ({!tokens_of_soa});
    {!scan_tokens} is scan-then-materialize-all. A token spelled as its
    keyword or punctuation literal shares that string as its text. *)

type t

val create : ?interner:Interner.t -> Spec.set -> t
(** Compile a token set. When [interner] is given it must cover every
    terminal name of the set (raises [Invalid_argument] otherwise);
    when omitted a fresh interner over the set's terminals is built. *)

val interner : t -> Interner.t

type error = {
  pos : Token.position;
  message : string;
}

val pp_error : error Fmt.t

(** {1 Struct-of-arrays token stream} *)

type soa = private {
  mutable src : string;         (** the scanned input *)
  mutable kind_ids : int array; (** dense terminal ids; slot [count] is EOF *)
  mutable starts : int array;   (** byte offset of each token's first char *)
  mutable stops : int array;    (** byte offset one past each token's last char *)
  mutable count : int;          (** number of real tokens, excluding EOF *)
  mutable newlines : int array; (** offsets of every ['\n'], ascending *)
  mutable nl_count : int;
}
(** A scanned token stream as parallel integer arrays. Only the first
    [count + 1] slots of [kind_ids]/[starts]/[stops] (and [nl_count] slots of
    [newlines]) are meaningful; the arrays are capacity-managed buffers. *)

val scan_soa : t -> string -> (soa, error) result
(** Tokenize the whole input into this domain's reusable SoA arena. Zero
    per-token allocation: the returned buffers are owned by the arena and are
    {b invalidated by the next [scan_soa] call on the same domain} — consume
    or materialize before rescanning. *)

val soa_count : soa -> int
(** Number of real tokens (the EOF sentinel at index [count] excluded). *)

val token_of_soa : t -> soa -> int -> Token.t
(** Materialize token [i] (valid for [0..count], where [count] is the EOF
    token): kind name from the interner, text via [String.sub] — with
    doubled-quote unescaping for string/quoted-identifier literals — and
    line/column recovered by binary search of the newline index. *)

val tokens_of_soa : t -> soa -> Token.t array
(** Materialize the whole stream (EOF token included, as the last element),
    walking the newline index sequentially. *)

val kind_name : t -> soa -> int -> string
(** The kind name of token [i], read from the interner by kind id without
    materializing the token; {!Token.eof_kind} for [i > count]. *)

val quote_of : t -> int -> char
(** The delimiter of a quoted kind (a string literal's ['\''], a quoted
    identifier's ['"']), ['\000'] for every other kind id. A quoted
    token's text is the bytes between its delimiters with each doubled
    delimiter read as one, which is how a consumer that reads the text in
    place (the parser's row renderer) recovers it without building it. *)

val scan_tokens : t -> string -> (Token.t array, error) result
(** Tokenize the whole input in one pass. On success the array always ends
    with the [EOF] token, so the statement's token count is
    [Array.length tokens - 1]. Equivalent to {!scan_soa} followed by
    {!tokens_of_soa}. *)

val keyword_count : t -> int
val punct_count : t -> int
(** Size measures of the generated scanner, used by the tailoring
    experiments. *)

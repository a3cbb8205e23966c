(** Tokens produced by generated scanners.

    A token's [kind] names the terminal it matches in the composed grammar
    (e.g. ["SELECT"], ["IDENT"], ["COMMA"]); its [text] is the matched
    lexeme (keywords keep their source spelling, quoted identifiers and
    string literals are unescaped).

    [kind_id] is the dense integer id of [kind] in the scanner's
    {!Interner} — the parser engine's hot path matches and indexes on it
    instead of hashing the kind string. Tokens built outside a scanner may
    carry {!no_id}; the engine's list entry point re-interns those. *)

type position = {
  line : int;    (** 1-based *)
  column : int;  (** 1-based *)
  offset : int;  (** 0-based byte offset *)
}

type t = {
  kind : string;
  kind_id : int;
  text : string;
  pos : position;
}

val eof_kind : string
(** The pseudo-terminal appended at the end of every token stream
    (["EOF"]). *)

val eof_id : int
(** [kind_id] of the EOF token — {!Interner.eof_id} in every interner. *)

val no_id : int
(** Sentinel [kind_id] ([-1]) for tokens not stamped by an interner; it is
    a member of no prediction set. *)

val eof : position -> t

val placeholder : t
(** A shared token that stands for no token (empty kind and text, id
    {!no_id}, position [0:0]). It is static data, never in the minor heap,
    so it can initialize an array of any size without the runtime forcing
    a minor collection, and recognition runs use it for the CST leaves they
    discard. *)

val pp_position : position Fmt.t
val pp : t Fmt.t

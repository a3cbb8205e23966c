(** The string-keyed parsing engine the interned {!Parser_gen.Engine}
    replaced.

    Retained verbatim as the executable specification of the parsing
    semantics: terminals match by [String.equal], prediction sets are
    balanced-tree string sets, and the memo is a polymorphic-hashed
    [(string * int)] hashtable. The differential test suite checks
    {!Parser_gen.Engine} against this module on the conformance corpus. It
    lives in the [oracle] test library: nothing in the shipped libraries or
    the CLI runs it. Keep it simple, not fast. *)

type t

val generate :
  Grammar.Cfg.t -> (t, Parser_gen.Engine_types.gen_error) result

val grammar : t -> Grammar.Cfg.t
val start_symbol : t -> string

val parse :
  ?start:string -> t -> Lexing_gen.Token.t list ->
  (Parser_gen.Cst.t, Parser_gen.Engine_types.parse_error) result

val accepts : ?start:string -> t -> Lexing_gen.Token.t list -> bool

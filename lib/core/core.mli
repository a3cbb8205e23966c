(** Facade of the customizable-SQL-parser product line.

    This is the API a downstream user works with:

    {[
      let parser = Core.generate_dialect Dialects.Dialect.tinysql |> Result.get_ok in
      let stmt = Core.parse_statement parser "SELECT nodeid, AVG(temp) FROM sensors GROUP BY nodeid EPOCH DURATION 1024" in
      ...
    ]}

    [generate] runs the paper's pipeline: validate the feature instance
    description, determine the composition sequence, compose the
    sub-grammars and token files, and hand the composed grammar to the
    parser generator. The result bundles the generated scanner and parser.
    Composition runs on the product line's family artifact ({!family}):
    the model's fragments are compiled once per process, and each
    configuration replays only its own fragments.

    [session] adds the engine: an in-memory database executing the parsed
    statements, turning a tailored parser into a tailored DBMS front-end. *)

type generated = {
  label : string;                      (** dialect or configuration name *)
  config : Feature.Config.t;
  grammar : Grammar.Cfg.t;             (** the composed grammar, as written *)
  tokens : Lexing_gen.Spec.set;
  scanner : Lexing_gen.Scanner.t;
  parser : Parser_gen.Engine.t;
      (** generated from {!Grammar.Factor.normalize} of [grammar]: same
          language, same CSTs, more committed dispatch points *)
  sequence : string list;              (** composition sequence used *)
}

type error =
  | Compose_error of Compose.Composer.error
  | Generation_error of Parser_gen.Engine.gen_error
  | Lex_error of Lexing_gen.Scanner.error
  | Parse_error of Parser_gen.Engine.parse_error
  | Lowering_error of Lower.error
  | Execution_error of string

val pp_error : error Fmt.t

val generate : ?label:string -> Feature.Config.t -> (generated, error) result
(** Generate the parser for a configuration of {!Sql.Model.model}:
    validate and compose by mask/replay over the family artifact
    ({!Family.instantiate}), then specialize — build the scanner,
    left-factor the grammar, and generate the engine, whose choice points
    are classified by {!Parser_gen.Ilookahead}. The products are those of
    folding the configuration's fragments directly and generating from
    the result; the test suite keeps that cold pipeline, with a
    string-based classifier, as its differential oracle
    ([Oracle.Cold.generate]).

    Safe to call from several domains at once: the artifact is built
    once, under a lock, by whichever call needs it first. *)

val generate_dialect : Dialects.Dialect.t -> (generated, error) result

val family : unit -> Family.t
(** The process-wide family artifact ({!Family.build} over
    {!Sql.Model.model}), built on first use. *)

val family_stats : unit -> Family.stats option
(** Stats of the artifact; [None] when nothing has built it yet. *)

val scan_tokens :
  generated -> string -> (Lexing_gen.Token.t array, error) result
(** Tokenize one statement into materialized [Token.t] records. The array
    ends with the [EOF] sentinel, so the statement's token count is
    [Array.length tokens - 1]. *)

val scan_soa :
  generated -> string -> (Lexing_gen.Scanner.soa, error) result
(** Tokenize into the scanner's per-domain struct-of-arrays arena: zero
    per-token allocation, invalidated by the next scan on the same domain.
    See {!Lexing_gen.Scanner.scan_soa}. *)

val parse_rows : generated -> string -> (Parser_gen.Rows.tree, error) result
(** Scan and parse one statement to flat rows: the bytecode VM over the
    struct-of-arrays token stream, the one production engine (every other
    parse entry point below and the service layer parse through it). The
    tree reads the domain's token and row arenas, so it is valid until the
    next scan or parse on the domain ({!Parser_gen.Rows}). *)

val parse_rows_counted :
  generated -> string -> int * (Parser_gen.Rows.tree, error) result
(** {!parse_rows} paired with the statement's token count, excluding the
    [EOF] sentinel (0 on a lexical error). *)

val parse_cst : generated -> string -> (Parser_gen.Cst.t, error) result
(** {!parse_rows} materialized as a concrete syntax tree
    ({!Parser_gen.Rows.to_cst}), which {!parse_statement} and {!run}
    lower. *)

val parse_cst_counted :
  generated -> string -> int * (Parser_gen.Cst.t, error) result
(** {!parse_cst} paired with the statement's token count, as
    {!parse_rows_counted} pairs it. *)

val recognize : generated -> string -> (unit, error) result
(** Accept/reject one statement on the VM without building a CST — the
    zero-allocation accept path (no token records, no tree). Errors are
    identical to {!parse_cst}'s. *)

val recognize_counted : generated -> string -> int * (unit, error) result
(** {!recognize} paired with the statement's token count, as
    {!parse_cst_counted} pairs it. *)

val parse_statement : generated -> string -> (Sql_ast.Ast.statement, error) result
(** Scan, parse and lower one statement. *)

val accepts : generated -> string -> bool
(** Does the tailored parser accept the statement? (Lexical errors count as
    rejection: an unknown keyword simply is no keyword in the dialect.) *)

val dispatch_summary : generated -> Parser_gen.Engine.summary
(** Choice-point classification of the generated parser: how much of the
    (left-factored) grammar parses on committed LL(1)/LL(2) dispatch and
    which rules still need backtracking. *)

(** Sessions: a generated front-end bound to an in-memory database. *)
type session

val session : generated -> session
val session_parser : session -> generated
val database : session -> Engine.Database.t

val run : session -> string -> (Engine.Executor.outcome, error) result
(** Parse and execute one statement. *)

val run_prepared :
  session -> string -> Engine.Value.t list ->
  (Engine.Executor.outcome, error) result
(** Parse a statement containing dynamic parameter markers ([?], the
    "Dynamic Parameters" feature), bind the given values positionally, and
    execute. *)

val run_script : session -> string list -> (Engine.Executor.outcome list, error) result
(** Run statements in order, stopping at the first error. *)

val split_statements : string -> string list
(** Split a script on top-level semicolons: a [;] inside a string literal,
    a double-quoted identifier, a [--] line comment or a [/* */] block
    comment does not split, exactly as the scanner reads them. Statements
    holding only whitespace and comments are dropped; the others keep
    their comments. *)

val fold_statements :
  ?chunk_size:int ->
  read:(bytes -> int -> int -> int) ->
  ('a -> string -> 'a) ->
  'a ->
  'a
(** Streaming {!split_statements}: pull the script from [read] (a
    [Unix.read]-style function returning 0 at end of input) in
    [chunk_size]-byte chunks (default 64 KiB) and fold [f] over each
    completed statement. Yields exactly the statements
    [split_statements] would on the concatenated input, without ever
    holding the whole script: memory is bounded by [chunk_size] plus the
    largest single statement. *)

(** Parser generation and execution.

    This module stands in for the paper's use of the ANTLR parser generator:
    {!generate} turns a composed grammar into a parser value (rejecting
    grammars an LL(k) generator would reject — undefined non-terminals, left
    recursion); {!parse_tokens} runs it over a token stream, producing a CST.

    The execution strategy is {e prediction-compiled}: at generation time
    every choice point (a rule's alternatives, a nested group, an
    optional/repetition enter-vs-skip) is classified by the interned
    LL(k ≤ 2) analysis {!Ilookahead}. Points whose branches are LL(1)- or
    LL(2)-disjoint become {e committed} — a dense [token id -> branch]
    table picks the only branch that can succeed. Every non-terminal whose
    own points commit is lowered to flat bytecode ({!Program}), and every
    parse runs on one engine: the bytecode VM ({!Vm}), with no continuation
    closures, no memo traffic and no derivation streams on its committed
    path. Points that stay ambiguous at k = 2 commit {e per lookahead}
    ({!Predict.Partial}): the lookaheads that only one branch predicts
    still commit, and only the ambiguous ones hand that one occurrence of
    the non-terminal to the memoized backtracking engine (ordered
    alternatives and FIRST-set pruning, standing in for ANTLR's syntactic
    predicates), whose derivations the VM tries in priority order. A start
    rule that is not compiled is one such occurrence spanning the whole
    statement. Parse errors are always derived by the backtracking path (a
    rejecting VM run is re-run without dispatch), so error positions and
    expected sets are those of the backtracking engine, exactly.

    The generated parser is {e interned}: every terminal kind and every
    non-terminal of the composed grammar is compiled down to a dense
    integer id at generation time. Terminal matching is an [int] compare
    against the token's {!Lexing_gen.Token.kind_id}, FIRST-set prediction
    is a bitset probe, and rules live in an int-indexed array. The
    backtracking memo is sparse: a per-run table keyed by
    [nt_id * (n_tokens + 1) + pos], created on the first fallback and
    holding only the cells the parse touches, each the head of a lazy
    derivation stream ({!Engine_types.derivs}) in which a later alternative
    is derived only when a consumer walks past every end the earlier ones
    produced. No parse allocates in proportion to rules × tokens, and an
    ambiguous choice whose first alternative finishes the statement never
    derives the others. String names survive only at the edges:
    CST node labels and parse-error expected sets (rendered back through
    the interner). A generated parser is immutable and safe to share
    across domains; the test suite's [Oracle.Reference] keeps the original
    string-keyed engine as the executable specification the differential
    tests compare against. *)

type t

type gen_error = Engine_types.gen_error =
  | Grammar_problems of Grammar.Cfg.problem list
      (** the grammar is not well-formed (typically an incoherent feature
          selection) *)
  | Left_recursion of string list
      (** non-terminals involved in left recursion *)

val pp_gen_error : gen_error Fmt.t

val generate :
  ?dispatch:bool ->
  ?interner:Lexing_gen.Interner.t ->
  ?classify:
    (term_id:(string -> int option) ->
    n_terms:int ->
    lhs:string ->
    Grammar.Production.alt list ->
    Predict.decision) ->
  Grammar.Cfg.t ->
  (t, gen_error) result
(** Compile a grammar to a parser. Prediction sets and dispatch tables are
    precomputed here so that parsing does no grammar analysis.

    [interner] is the scanner's terminal interner: passing it (as
    {!Core.generate} does) makes the parser trust the [kind_id] stamped on
    tokens without re-hashing kind strings. It is extended — existing ids
    preserved — with any grammar terminal it does not cover; when omitted, a
    fresh interner over the grammar's terminals is built and every token is
    re-interned at the parse boundary.

    [dispatch] (default [true]) classifies choice points against
    LL(1)/LL(2) prediction sets, commits without backtracking wherever they
    are disjoint and compiles the committed region for the VM.
    [~dispatch:false] classifies no choice point and never builds the k = 2
    lookahead tables: no program, every parse on the memoized
    backtracking-everywhere engine — the differential tests' baseline; the
    k = 1 tables, which give the FIRST-set pruning, are built either way.
    The flag only affects performance, never a parse result.

    [classify] replaces the {!Ilookahead} classifier with a
    caller-supplied decision oracle. It exists so that the test suite can
    substitute its string-based classifier and check that both produce
    the same parser. The oracle receives the interner view ([term_id] is
    [None] for names the interner has never seen) and each choice point
    exactly as {!Ilookahead.decide} would; it must be {e exact} (same
    decisions on the same grammar), or dispatch summaries and parse
    behavior diverge. *)

(** {2 Choice-point classification} *)

type nt_class = {
  nt_name : string;
  nt_committed : bool;
      (** the whole subtree below this non-terminal parses on committed
          dispatch, with no fallback *)
  nt_k : int;  (** max lookahead its own committed points consume (0–2) *)
  nt_fallbacks : int;
      (** its own choice points that stayed ambiguous at k = 2 — exactly
          the rules lint reports as conflicted (partial points included) *)
}

type summary = {
  committed_points : int;  (** choice points with disjoint prediction sets *)
  k1_points : int;         (** of those, decided by one token *)
  k2_points : int;         (** of those, needing a second token *)
  ambiguous_points : int;
      (** choice points whose prediction sets overlap at k = 2 *)
  partial_points : int;
      (** of those, the points committing per lookahead
          ({!Predict.Partial}): they backtrack only on the ambiguous
          lookaheads. Every ambiguous point is partial when dispatch is
          on. *)
  committed_nts : int;
  total_nts : int;         (** reachable non-terminals *)
  classes : nt_class list; (** reachable non-terminals, grammar order *)
}

val summary : t -> summary
(** The classification computed at {!generate} time. All zeros (and no
    committed non-terminals) when the parser was generated with
    [~dispatch:false]. Single-branch pseudo-choices are not counted. *)

val coverage : summary -> float
(** Committed fraction of real choice points, in [0, 1]; [1.0] when the
    grammar has none. *)

val pp_summary : summary Fmt.t

val grammar : t -> Grammar.Cfg.t
val start_symbol : t -> string

val interner : t -> Lexing_gen.Interner.t
(** The terminal interner the parser matches against (the scanner's,
    possibly extended). *)

type parse_error = Engine_types.parse_error = {
  pos : Lexing_gen.Token.position;  (** position of the furthest failure *)
  found : string;                   (** token kind found there *)
  expected : string list;           (** token kinds that would have allowed
                                        progress, sorted *)
}

val pp_parse_error : parse_error Fmt.t

val parse_tokens :
  ?start:string -> t -> Lexing_gen.Token.t array -> (Cst.t, parse_error) result
(** [parse_tokens p tokens] parses a complete token stream (ending in [EOF])
    from the grammar's start symbol (or [start]). The whole input must be
    consumed. {!Lexing_gen.Scanner.scan_tokens} output flows in without
    conversion, and tokens stamped by the shared interner are trusted by
    id. The parse runs on the bytecode VM, building rows over [tokens]
    that are then materialized ({!Rows.to_cst}); an overridden [start]
    parses on the memoized engine, since the prediction tables are
    computed for the grammar's own start symbol.

    A parse failing past the last token reports the position just past that
    token's span and [EOF] as the found kind. On scanner streams this is
    the trailing [EOF] sentinel's own position; it differs from
    [Oracle.Reference] (which clamps to the last token's start) only on
    hand-built streams without the sentinel. *)

val parse :
  ?start:string -> t -> Lexing_gen.Token.t list -> (Cst.t, parse_error) result
(** List view of {!parse_tokens}. Tokens carrying {!Lexing_gen.Token.no_id}
    (built by hand rather than by a scanner) are re-interned by kind. *)

val accepts : ?start:string -> t -> Lexing_gen.Token.t list -> bool

val pure_reruns : unit -> int
(** How many parses in the calling domain so far had their dispatching run
    (the VM) reject and were re-derived on the pure backtracking path. An
    accepted statement that moved this counter was
    wrongly rejected by its dispatching run, even though its result is
    right; the differential tests check that it does not. *)

(** {2 Bytecode VM entry points}

    At {!generate} time (unless [~dispatch:false]) the committed region of
    the grammar is lowered to flat bytecode ({!Program}), executed by {!Vm}
    with explicit integer stacks; every entry point above and below runs
    it. The VM falls back to the memoized engine at references to
    uncommitted rules, at ambiguous lookaheads of a [Partial] rule entry,
    and (through its boot [FB]) at a start rule that is not compiled. The
    memoized engine in turn runs each compiled subtree it needs
    ([nt_strict]: every rule it reaches is compiled) on the same VM, as a
    strict run on a second per-domain arena ({!Vm.strict}), and enumerates
    only where that run meets an ambiguous lookahead. Any rejecting run is
    re-derived on the pure backtracking path, so CSTs and parse errors are
    byte-identical across the token-array and SoA entry points and the
    [~dispatch:false] engine. *)

val program : t -> Program.t option
(** The compiled bytecode, [None] iff generated with [~dispatch:false]. The
    program is built eagerly so caching the engine (as [Service.Cache] does)
    caches the compiled program alongside the front-end. *)

val parse_rows :
  ?start:string ->
  t ->
  scanner:Lexing_gen.Scanner.t ->
  Lexing_gen.Scanner.soa ->
  (Rows.tree, parse_error) result
(** Parse a struct-of-arrays token stream in place, building rows: kind
    ids are read straight out of the scanner's arena, every node the parse
    closes is a row in the domain's {!Rows} arena, and every leaf a token
    index into the stream, so no [Token.t] record is built unless an error
    edge needs one. The tree is valid until the next parse or scan on the
    domain (see {!Rows}). [scanner] must be the scanner that produced the
    stream; when it shares the engine's interner (as under
    {!Core.generate}) its ids are trusted without re-stamping. *)

val parse_soa :
  ?start:string ->
  t ->
  scanner:Lexing_gen.Scanner.t ->
  Lexing_gen.Scanner.soa ->
  (Cst.t, parse_error) result
(** {!parse_rows} materialized as a {!Cst.t} ({!Rows.to_cst}): each leaf's
    token is read with {!Lexing_gen.Scanner.token_of_soa}. *)

val recognize_soa :
  ?start:string ->
  t ->
  scanner:Lexing_gen.Scanner.t ->
  Lexing_gen.Scanner.soa ->
  (unit, parse_error) result
(** Accept/reject without building rows. On the fully committed VM path
    this allocates nothing per token — the zero-allocation accept path the
    SoA stream exists for. No token is materialized unless the statement
    is rejected, and strict runs build no row. Errors are still re-derived
    exactly. *)

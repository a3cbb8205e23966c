(** LL(k ≤ 2) lookahead analysis over interned terminals: choice-point
    classification and conflict reports.

    {!Engine.generate} asks, for every choice point it compiles — a rule's
    alternatives, a nested group, an optional/repetition enter-vs-skip —
    whether the branches' strong-LL(k) prediction sets are pairwise
    disjoint, and compiles the answer into a {!Predict.decision}.

    This is the product line's single lookahead analysis: the engine's
    classifier and the lint's conflict report ({!conflicts}) both read it.
    It computes the FIRST{_k} / FOLLOW{_k} least fixpoints of the string
    sequence-set specification (the test suite's [Oracle.Lookahead]) over
    bitset planes: a set of token sequences of length ≤ 2 over [n]
    interned terminal kinds is an epsilon flag, an [n]-bit singles plane
    (bit [a] for the sequence [\[a\]]) and a row-sparse pairs plane — an
    array of [n] rows, row [a] the [n]-bit plane of the [c] with
    [\[a; c\]] in the set, built only for a first token that begins a
    pair (every other row is one shared empty array) — so unions,
    concatenations and change detection are word-parallel instead of
    element-wise. Rows are immutable once stored: sets share them instead
    of copying them, and the FOLLOW accumulation replaces a row that grows
    instead of writing into it. A set is then a few hundred words at most,
    allocated on the minor heap even for the largest dialect.

    Exactness: the planes are a canonical representation of the string
    sequence sets [Oracle.Lookahead] manipulates, and every operation
    ([concat_k] as plane algebra, star closure, the FIRST/FOLLOW
    fixpoints, prediction) mirrors its counterpart set for set.
    Least-fixpoint uniqueness makes the iteration order irrelevant. A
    string classifier over [Oracle.Lookahead] is kept in the test suite as
    a differential oracle: every choice point of the shipped dialects and
    of random configurations must receive the same decision and the same
    dense tables from both, and every grammar the same {!conflicts},
    witness for witness.

    Soundness of commitment: for a branch phrase β of rule [lhs], the
    prediction set is FIRST{_k}(β · FOLLOW{_k}(lhs)) — a {e superset} of
    the prediction set in any concrete parse context (strong-LL FOLLOW is
    the union over all contexts). So lookahead outside a branch's set
    proves that branch cannot lead to a successful parse, and disjoint
    sets leave at most one viable branch: committing is exactly what
    exhaustive backtracking would have chosen.

    The same argument holds entry by entry. When the sets overlap at
    k = 2 the point commits {e per lookahead}
    ({!Predict.Partial}): a lookahead claimed by exactly one branch
    commits to it (it is the only branch that can succeed there), one
    claimed by none fails the point, and only the lookaheads claimed by
    two or more branches are marked {!Predict.ambiguous} and left to
    backtracking. *)

type t
(** Lookahead tables of one grammar, shared across all of its choice
    points. *)

val make : term_id:(string -> int) -> n_terms:int -> Grammar.Cfg.t -> t
(** Build the k = 1 tables eagerly; the k = 2 tables are built only when
    the first k = 1 conflict forces the escalation. [term_id] must map
    every terminal of the grammar to its interned id (below [n_terms]);
    the EOF sentinel is {!Lexing_gen.Interner.eof_id}. *)

val first1 : t -> Grammar.Production.alt -> bool * int list
(** FIRST{_1} of a term sequence from the k = 1 tables: whether it derives
    the empty string (is nullable), and the ids of the terminals that can
    begin it, ascending. The generated parser's pruning sets and error
    expected sets are built from it. *)

val decide : t -> lhs:string -> Grammar.Production.alt list -> Predict.decision
(** Classify one choice point of rule [lhs]: [Always], [Commit1],
    [Commit2], or [Partial] when no two-token lookahead separates every
    pair of branches (never [Fallback]). Each element of the list is a
    full branch {e phrase}: the branch's own symbols followed by the
    continuation to the end of the enclosing alternative (the engine
    builds these when compiling), so that prediction covers everything up
    to FOLLOW(lhs). *)

(** {1 Conflicts} *)

type conflict = {
  lhs : string;
  alt_a : int;
  alt_b : int;
  witnesses : string list list;
      (** token sequences (length ≤ k) predicting both alternatives,
          shortest first, then in lexicographic order of terminal names;
          never empty. A sequence shorter than [k] is a complete yield
          ([\["EOF"\]] after the start symbol); [\[\]] occurs only where
          FOLLOW{_k} is empty (an unreachable rule with a nullable
          alternative). *)
}

val conflicts : k:int -> Grammar.Cfg.t -> conflict list
(** All pairs of alternatives [alt_a < alt_b] of a rule whose k-token
    prediction sets FIRST{_k}(alt · FOLLOW{_k}(lhs)) overlap, in rule
    order and then pair order. [k] must be 1 or 2 (raises
    [Invalid_argument] otherwise). The grammar's terminals are interned
    afresh, so any grammar works, composed or hand-built. At [k = 1] the
    witnesses are single terminals and the pairs are exactly the textbook
    LL(1) conflicts (the test suite's [Oracle.Analysis]); at [k = 2] a pair
    that disappears is resolved by one extra token of lookahead.
    [sqlpl lint] and [sqlpl report] read their conflicts from here. *)

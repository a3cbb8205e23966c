(** Grammar normalization for prediction-compiled parsing.

    A composed grammar is written for readability of the fragments, not for
    determinism: many rules spell out alternatives that share a leading
    keyword ([ALTER TABLE ... | ALTER INDEX ...]), which forces an LL(1)
    predictor to give up on the whole rule even though one or two tokens
    decide the suffix. {!left_factor} rewrites such rules before engine
    generation so the conflict moves from the rule's alternatives (where the
    shared prefix hides the distinguishing token) into a nested group
    placed {e after} the prefix (where a single token commits).

    Both passes are applied to the {e composed} grammar, between
    composition ([Family.instantiate]) and {!Parser_gen.Engine.generate};
    the original grammar is kept for reports, printing and lint.

    {b CST preservation.} Left-factoring is exactly CST-preserving: only
    runs of {e adjacent} alternatives whose common prefix consists of plain
    terminal symbols are merged, and the shared prefix plus a
    [Group] of the residual suffixes produces the same flat child list
    under the same node label, enumerated in the same priority order (a
    terminal prefix has a single derivation, so factoring cannot reorder
    the derivation enumeration the backtracking engines perform). The
    differential suite verifies this tree-for-tree. Parse-{e error}
    positions are also preserved; the {e expected} token set at a failure
    may widen to a superset (a pruned group records the whole FIRST set of
    a residual suffix where the unfactored grammar silently skipped an
    optional prefix of it).

    {!inline_trivial} is {e not} CST-preserving — replacing a reference to
    a unit rule [b : c] with [c] removes the [b] node from the tree — so it
    is opt-in ({!normalize} applies it only when asked) and is exercised by
    the differential suite with all engines running the same inlined
    grammar. *)

type stats = {
  factored_runs : int;
      (** adjacent alternative runs merged under a common terminal prefix *)
  factored_rules : int;  (** rules in which at least one run was merged *)
  inlined_refs : int;    (** references to unit rules replaced *)
  inlined_rules : int;   (** unit rules removed from the grammar *)
}

val left_factor : Cfg.t -> Cfg.t * stats
(** Left-factor every rule (and, recursively, every nested group): maximal
    runs of adjacent alternatives that start with the same terminal are
    replaced by one alternative carrying the longest common terminal
    prefix followed by a group of the residual suffixes, themselves
    factored recursively. Alternatives whose head is not a terminal are
    never moved or merged, so ordered-choice priority is unchanged. *)

val inline_trivial : Cfg.t -> Cfg.t * stats
(** Inline unit rules: a rule with exactly one alternative consisting of a
    single symbol ([b : c] or [b : "T"]) is removed and every reference to
    it replaced by that symbol. Chains ([a : b], [b : c]) are resolved;
    cyclic unit rules and the start symbol are left alone. Changes the CST
    (the inlined rule's node disappears); see the module preamble. *)

val normalize : ?inline:bool -> Cfg.t -> Cfg.t * stats
(** [normalize g] is {!left_factor} after (optionally) {!inline_trivial}.
    [inline] defaults to [false] — the CST-preserving pipeline used by
    {!Core.generate}. *)

(** Family-based compilation: the whole product line as one artifact.

    A per-config pipeline would re-run compose → generate → classify →
    bytecode-compile on every {!Service.Cache} miss. This module lifts the
    front half of that pipeline to the {e family}: {!build} walks the
    feature diagram once and compiles every fragment's contribution —
    rules, token-spec entries — into a presence-condition-tagged event
    table (the product line's 150% program), together with the composed
    family grammar and family-wide lint diagnostics. {!instantiate} then
    turns a configuration into a product by evaluating presence conditions
    against the config's feature bitset and {e replaying} the composition
    calculus over the surviving events only.

    Replay — not structural masking — is the load-bearing design decision.
    The composition calculus is non-monotonic: a Merged outcome unions
    optional parts into an anchored alternative, so the {e shape} of a
    rule in the full-family grammar is not a superset-with-holes of its
    shape in a sub-configuration ([F1] contributing [\[a\]] and [F2]
    contributing [\[b; a\]] yields optionals ordered [\[a; b\]] in the
    family but [\[b; a\]] under [{F2}] alone). Token tables reorder the
    same way (first-occurrence order across the {e filtered} sequence).
    Masking bits out of the family grammar or its bytecode therefore
    cannot be behavior-identical; replaying the fold over the pc-filtered
    event sequence is — it {e is} the per-config fold, minus fragment
    lookup, validation bitsets precomputed. The expensive back half
    (LL(k ≤ 2) classification) is made cheap instead of skipped:
    {!Parser_gen.Ilookahead} computes the exact per-config analysis over
    packed integer sequences, ~25–80x faster than the string-based pass.

    An artifact is safe to share between domains: {!instantiate},
    {!time_specialize} and {!diagnostics} may run concurrently, and the
    counters in {!stats} are updated under a lock.

    Invalid configurations (violating the model, including [requires] /
    [excludes]) are rejected by {!Feature.Config.validate} {e before} any
    masking. *)

type t

val build : start:string -> Feature.Model.t -> Compose.Fragment.registry -> t
(** Compile the family artifact: one pass over the diagram pre-order,
    tagging each fragment event, each rule and each token entry with its
    presence condition, composing the 150% family grammar, and computing
    the core-feature closure (mandatory chain + [requires] from the
    concept) that classifies conditions as always-on. *)

val instantiate :
  t ->
  Feature.Config.t ->
  (Compose.Composer.output, Compose.Composer.error) result
(** Mask and replay: validate the configuration, evaluate presence
    conditions against its feature bitset, fold the composition calculus
    over the surviving events. This is the product line's one composer:
    [sqlpl lint], the configurator, the paper tables and [Core.generate]
    all compose through it. The result — grammar, token set, composition
    sequence ({!Compose.Composer.sequence}), error cases including hints —
    equals the direct fold of the configuration's fragments, which the
    test suite keeps as its reference ([Oracle.Cold.compose]). *)

val time_specialize : t -> (unit -> 'a) -> 'a
(** Run the downstream specialization step (scanner build, left-factoring,
    engine generation) under the artifact's specialize-time counter. *)

val diagnostics : t -> Lint.Diagnostic.t list
(** Family-wide lint: the grammar/token/model analyses run {e once} over
    the 150% program (computed lazily, cached). Sound for every product
    whose artifacts survive filtering — see {!diagnostics_for}. *)

val diagnostics_for : t -> Feature.Config.t -> Lint.Diagnostic.t list
(** {!diagnostics} filtered to a configuration: a finding is kept when the
    presence condition of its subject (rule, token or feature) holds under
    the config's bitset. This is the lifted-analysis view — an
    over-approximation of the per-config lint (witnesses may mention
    artifacts of other features); the authoritative per-product gate
    remains {!Lint.run} over the product {!instantiate} returns, as
    [sqlpl lint] runs it. *)

type stats = {
  features : int;  (** features in the model *)
  fragments : int;  (** pc-tagged fragment events in the artifact *)
  core_fragments : int;  (** events present in every valid product *)
  rules : int;  (** rules of the 150% family grammar *)
  tokens : int;  (** distinct token-spec entries across the family *)
  size_ints : int;
      (** artifact footprint: grammar symbols + token entries + pc atoms *)
  instantiations : int;  (** successful {!instantiate} calls *)
  mask_ms : float;  (** cumulative mask+replay time *)
  specialize_ms : float;  (** cumulative {!time_specialize} time *)
}

val stats : t -> stats
val pp_stats : stats Fmt.t

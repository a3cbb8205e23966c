(** What composing a configuration's fragments produces, and in which
    order it composes them.

    Composition folds the composition calculus ({!Rules}) over the
    {e composition sequence}: the pre-order of the selected features in
    the diagram. A parent (base) always composes before its children
    (extensions), and siblings compose in diagram order — which is what
    anchors merged optional clauses in the right syntactic position (e.g.
    [WHERE] before [GROUP BY] under Table Expression). The [requires] /
    [excludes] constraints decide {e which} selections are admissible (they
    are enforced by validation), not the order.

    The fold itself is [Family.instantiate], which replays it over the
    product line's family artifact; this module holds its product and
    error types, the sequence, and the per-rule {!trace}. *)

type output = {
  grammar : Grammar.Cfg.t;
  tokens : Lexing_gen.Spec.set;
  sequence : string list;  (** composition sequence actually used *)
}

type error =
  | Invalid_configuration of Feature.Config.violation list
  | Token_conflict of { feature : string; conflict : Lexing_gen.Spec.conflict }
  | Incoherent_grammar of {
      problems : Grammar.Cfg.problem list;
      hints : (string * string) list;
          (** (undefined non-terminal, feature whose fragment defines it) *)
    }

val pp_error : error Fmt.t

val sequence : Feature.Model.t -> Feature.Config.t -> string list
(** The composition sequence for a configuration: the selected features in
    diagram pre-order. *)

type trace_event = {
  feature : string;         (** fragment owner *)
  lhs : string;             (** rule being composed *)
  outcome : Rules.outcome option;
      (** per composed alternative; [None] when the feature introduced the
          rule *)
}

val trace :
  Feature.Model.t ->
  Fragment.registry ->
  Feature.Config.t ->
  trace_event list
(** Replay the composition and report, per fragment rule, which of the
    paper's composition rules fired (the §3.2 narrative, mechanized). The
    configuration is assumed valid; invalid selections yield a best-effort
    trace. *)

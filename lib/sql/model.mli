(** The assembled SQL:2003 feature model.

    The concept [SQL:2003] groups the regions defined by the [Features_*]
    modules; {!diagrams} publishes the per-construct feature diagrams
    (the paper reports 40 of them with 500+ features for SQL Foundation). *)

val model : Feature.Model.t
(** The full feature model: diagram plus cross-tree constraints. *)

val registry : Compose.Fragment.registry
(** Fragment registry covering every feature of {!model} (organizational
    features own empty fragments). *)

val start_symbol : string
(** Start symbol of composed grammars (["sql_statement"]). *)

val diagrams : (string * Feature.Tree.t) list
(** The published per-construct diagrams: [(name, subtree)] pairs, each the
    feature diagram of one SQL construct (e.g. ["Query Specification"],
    ["Table Expression"]). *)

val diagram : string -> Feature.Tree.t option
(** Look up a published diagram by name. *)

type stats = {
  features_in_model : int;       (** distinct features of the full model *)
  diagram_count : int;           (** published construct diagrams *)
  features_across_diagrams : int;
      (** features summed over the published diagrams — the counting used by
          the paper's "40 feature diagrams, more than 500 features" claim
          (a construct appearing in several diagrams counts in each) *)
  constraint_count : int;
}

val stats : stats

val fragment_rules : (string * Grammar.Production.t list) list
(** [(feature, rules)] view of {!registry} in the dependency-free shape the
    lint subsystem consumes ([Lint.Model_lint.fragments]). *)

val close : Feature.Config.t -> Feature.Config.t
(** Close a seed selection under parents, mandatory children and
    [requires]. *)

val validate : Feature.Config.t -> Feature.Config.violation list

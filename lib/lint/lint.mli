(** The unified static-analysis pass over composed products.

    A composed product has three artifact layers — the grammar, the token
    set and the feature selection it was composed from. {!run} lints
    whichever layers it is given and returns one flat list of structured
    {!Diagnostic.t} values; {!pp_report} and {!to_json_lines} render it for
    humans and machines.

    The intended use is failing before a product ships rather than in a
    user's hot path: run {!run} over the product that
    [Family.instantiate] composes (as [sqlpl lint DIALECT] does) and gate
    on {!Diagnostic.has_errors}. *)

module Diagnostic : module type of Diagnostic
module Grammar_lint : module type of Grammar_lint
module Token_lint : module type of Token_lint
module Model_lint : module type of Model_lint

val run :
  ?k:int ->
  ?model:Feature.Model.t ->
  ?config:Feature.Config.t ->
  ?fragments:Model_lint.fragments ->
  ?tokens:Lexing_gen.Spec.set ->
  Grammar.Cfg.t ->
  Diagnostic.t list
(** [run grammar] always performs the grammar analyses ({!Grammar_lint},
    with LL(k) conflict detection bounded by [k], default 2). [?tokens]
    adds the token-set analyses ({!Token_lint}); [?model] adds the
    feature-model analyses ({!Model_lint}, with registry coverage when
    [?fragments] is given); [?config] together with [?fragments] adds the
    per-selection fragment coverage check. *)

val pp_report : Diagnostic.t list Fmt.t
(** Human-readable rendering: sorted diagnostics plus a count summary. *)

val to_json_lines : Diagnostic.t list -> string
(** Machine-readable rendering: one JSON object per line. *)

(** Grammar reports for composed dialects.

    A report gathers what a product-line engineer wants to inspect before
    shipping a tailored parser: size measures, determinism diagnostics
    (LL(1) conflicts — the places where the generated parser relies on
    backtracking, standing in for ANTLR's syntactic predicates), the
    statement classes available, and each feature's contribution. *)

type t = {
  label : string;
  feature_count : int;
  rule_count : int;
  alternative_count : int;
  symbol_count : int;
  token_count : int;
  keyword_count : int;
  punct_count : int;
  statement_classes : string list;
      (** the non-terminals reachable as direct [sql_statement] alternatives *)
  ll1_conflicts : Parser_gen.Ilookahead.conflict list;
      (** {!Parser_gen.Ilookahead.conflicts} at [k = 1] *)
  unreachable_rules : string list;
  contributions : (string * int * int) list;
      (** (feature, rules contributed, tokens contributed), composition order,
          organizational features omitted *)
  grammar : Grammar.Cfg.t;
      (** the composed grammar itself, kept for grammar-aware rendering of
          the conflicts *)
}

val build : Core.generated -> t
(** Compute a report for a generated front-end. *)

val pp : t Fmt.t
(** Multi-section human-readable rendering. *)

val to_string : Core.generated -> string

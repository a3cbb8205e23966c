(** Single-token FIRST/FOLLOW analysis and LL(1) conflicts over strings:
    the textbook specification of [Parser_gen.Ilookahead] at k = 1.

    Nullability, FIRST and FOLLOW are least fixpoints computed directly on
    the EBNF structure (no desugaring to plain BNF). [Ilookahead.first1]
    must agree with {!seq_nullable} and {!seq_first}, and
    [Ilookahead.conflicts ~k:1] must report exactly the pairs of
    {!ll1_conflicts}. *)

module String_set : Set.S with type elt = string
module String_map : Map.S with type key = string

type t = {
  nullable : String_set.t;              (** non-terminals deriving epsilon *)
  first : String_set.t String_map.t;    (** FIRST sets per non-terminal *)
  follow : String_set.t String_map.t;   (** FOLLOW sets per non-terminal *)
}

val compute : Grammar.Cfg.t -> t
(** FOLLOW of the start symbol contains ["EOF"]. *)

val seq_nullable : t -> Grammar.Production.alt -> bool
(** Whether a term sequence can derive the empty string. *)

val seq_first : t -> Grammar.Production.alt -> String_set.t
(** FIRST set of a term sequence. *)

type conflict = {
  lhs : string;
  alt_a : int;        (** index of the first conflicting alternative *)
  alt_b : int;        (** index of the second conflicting alternative *)
  overlap : String_set.t;  (** terminals predicting both alternatives *)
}

val ll1_conflicts : Grammar.Cfg.t -> conflict list
(** Pairs of alternatives of a rule whose prediction sets (FIRST, extended
    with FOLLOW for nullable alternatives) overlap. *)

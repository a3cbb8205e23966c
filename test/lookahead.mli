(** LL(k) lookahead analysis for k ≤ 2, over strings: the reference that
    [Parser_gen.Ilookahead] is checked against.

    {!Analysis} computes single-token FIRST/FOLLOW sets; this module
    generalizes them to sets of token {e sequences} of length at most [k]
    (strong-LL FIRST{_k} / FOLLOW{_k}), held as plain sets of terminal-name
    lists. It is the executable specification of the production analysis:
    the string classifier ([String_predict]) is built on it, and
    [Ilookahead.conflicts] must return exactly its {!conflicts} — the
    same pairs with the same witness sequences in the same order.

    A sequence shorter than [k] in any of these sets is a {e complete}
    yield — derivation ends there (e.g. [\["EOF"\]] after the start
    symbol); sequences of length [k] are truncations of possibly longer
    yields. *)

module Seq_set : Set.S with type elt = string list

type t
(** FIRST{_k} and FOLLOW{_k} tables of a grammar for a fixed [k]. *)

val compute : k:int -> Grammar.Cfg.t -> t
(** Fixpoint computation. [k] must be 1 or 2 — larger bounds raise
    [Invalid_argument] (the sequence-set representation is exact but its
    cost grows with the k-th power of the token count). *)

val first : t -> string -> Seq_set.t
(** FIRST{_k} of a non-terminal. *)

val follow : t -> string -> Seq_set.t
(** FOLLOW{_k} of a non-terminal; FOLLOW{_k} of the start symbol contains
    [\["EOF"\]]. *)

val seq_first : t -> Grammar.Production.alt -> Seq_set.t
(** FIRST{_k} of a term sequence. *)

val predict : t -> lhs:string -> Grammar.Production.alt -> Seq_set.t
(** The k-token prediction set of one alternative of rule [lhs]:
    FIRST{_k}(alt · FOLLOW{_k}(lhs)). An LL(k) parser commits to the
    alternative whose prediction set contains the next [k] tokens. *)

type conflict = {
  lhs : string;
  alt_a : int;
  alt_b : int;
  witnesses : string list list;
      (** token sequences (length ≤ k) predicting both alternatives,
          shortest first; never empty *)
}

val conflicts : k:int -> Grammar.Cfg.t -> conflict list
(** All pairs of alternatives whose k-token prediction sets overlap. At
    [k = 1] this reports exactly the pairs of
    {!Analysis.ll1_conflicts}; at [k = 2] a pair that disappears is
    resolved by one extra token of lookahead. *)

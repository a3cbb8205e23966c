(** Error types shared by the interned {!Engine} and the string-path
    reference engine the test suite keeps ([Oracle.Reference]), so the
    differential tests can compare the two implementations' results
    structurally. *)

type gen_error =
  | Grammar_problems of Grammar.Cfg.problem list
      (** the grammar is not well-formed (typically an incoherent feature
          selection) *)
  | Left_recursion of string list
      (** non-terminals involved in left recursion *)

val pp_gen_error : gen_error Fmt.t

type parse_error = {
  pos : Lexing_gen.Token.position;  (** position of the furthest failure *)
  found : string;                   (** token kind found there *)
  expected : string list;           (** token kinds that would have allowed
                                        progress, sorted *)
}

val pp_parse_error : parse_error Fmt.t

(** {1 Compiled grammar representation}

    The interned form {!Engine.generate} lowers a grammar into, exposed here
    so {!Program} can compile it further into flat bytecode without the
    engine's internals being public. *)

type bitset = Bytes.t
(** FIRST sets as bitsets over dense terminal ids. *)

type pred = {
  first : bitset;
  nullable : bool;
}
(** Prediction data of one phrase: its FIRST set and nullability. *)

type iterm =
  | ITerm of int  (** terminal occurrence, by interned id *)
  | INonterm of int  (** non-terminal occurrence, by rule index *)
  | IOpt of iseq * pred * Predict.decision
  | IStar of iseq * pred * Predict.decision
  | IPlus of iseq * pred * Predict.decision
      (** the decision is the enter-vs-skip choice of the repetition
          continuing {e after} the mandatory first iteration *)
  | IGroup of (iseq * pred) array * Predict.decision

and iseq = iterm array

(** {1 Derivation streams} *)

type derivs =
  | Nil
  | Cons of int * Cst.t list * derivs Lazy.t
      (** [Cons (j, children, rest)]: a derivation ending at token [j]
          (exclusive) with these CST children, then the lower-priority
          derivations with other ends *)
(** The derivations of one non-terminal at one position, in priority order
    and deduped by end position (the highest-priority tree of each end),
    as a memoized lazy stream. The memoized engine derives an alternative
    only when a consumer walks past every end the earlier alternatives
    produced, so forcing a tail may run the oracle; a tail once forced is
    shared by every consumer of the same memo cell. *)

val nil_tail : derivs Lazy.t
(** The already-forced empty tail. *)

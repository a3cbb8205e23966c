type gen_error =
  | Grammar_problems of Grammar.Cfg.problem list
  | Left_recursion of string list

let pp_gen_error ppf = function
  | Grammar_problems ps ->
    Fmt.pf ppf "@[<v>grammar not well-formed:@ %a@]"
      Fmt.(list ~sep:cut Grammar.Cfg.pp_problem)
      ps
  | Left_recursion nts ->
    Fmt.pf ppf "left-recursive non-terminals: %a"
      Fmt.(list ~sep:comma string)
      nts

type parse_error = {
  pos : Lexing_gen.Token.position;
  found : string;
  expected : string list;
}

(* FIRST sets as bitsets over dense terminal ids: membership is a shift and
   a mask instead of a balanced-tree descent over string comparisons. *)
type bitset = Bytes.t

(* The grammar compiled down to integers, with a prediction record attached
   to every choice point. Terminal occurrences are interner ids, non-terminal
   occurrences index the engine's [rules] array. Every choice point
   additionally carries its {!Predict.decision}. Shared between the engine
   (which interprets it) and {!Program} (which lowers it to bytecode). *)
type pred = {
  first : bitset;
  nullable : bool;
}

type iterm =
  | ITerm of int
  | INonterm of int
  | IOpt of iseq * pred * Predict.decision
  | IStar of iseq * pred * Predict.decision
  | IPlus of iseq * pred * Predict.decision
      (* decision of the repetition continuing *after* the mandatory first
         iteration — the same enter-vs-skip choice as [IStar] *)
  | IGroup of (iseq * pred) array * Predict.decision

and iseq = iterm array

let pp_parse_error ppf e =
  Fmt.pf ppf "parse error at %a: found %s, expected %a"
    Lexing_gen.Token.pp_position e.pos e.found
    Fmt.(list ~sep:(any " | ") string)
    e.expected

(* A non-terminal's derivations at one position, in priority order and
   deduped by end position, as a memoized lazy stream: the oracle derives a
   later alternative only when a consumer walks past every end the earlier
   ones produced. *)
type derivs =
  | Nil
  | Cons of int * int * derivs Lazy.t

let nil_tail = Lazy.from_val Nil

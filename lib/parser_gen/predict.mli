(** Choice-point decisions: what {!Ilookahead.decide} compiles a choice
    point into, and what the engine dispatches on.

    A {e committed} decision is a dense table in which one or two tokens
    of lookahead pick the only branch that can possibly succeed; the
    engine parses such a point with a direct loop — no continuation
    closures, no memo traffic, no derivation lists. When the branches'
    prediction sets overlap even at k = 2, the point keeps the memoized
    backtracking semantics ({!Fallback}). *)

type decision =
  | Always  (** fewer than two branches: nothing to choose *)
  | Commit1 of int array
      (** [table.(tid)] is the branch committed to by one token of
          lookahead, or [-1] when no branch can succeed *)
  | Commit2 of int array * (int, int array) Hashtbl.t
      (** first-token table as in [Commit1], with [-2] marking entries
          decided by the second token via the keyed row
          [row.(tid2) = branch | -1] *)
  | Fallback  (** prediction sets overlap at k = 2: keep backtracking *)

val committed : decision -> bool
(** [true] for [Always], [Commit1], [Commit2]. *)

val k_used : decision -> int
(** Tokens of lookahead the decision consumes: 0, 1 or 2 ([Fallback] is
    0). *)

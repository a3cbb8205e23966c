(** Choice-point decisions: what {!Ilookahead.decide} compiles a choice
    point into, and what the engine dispatches on.

    A {e committed} decision is a dense table in which one or two tokens
    of lookahead pick the only branch that can possibly succeed; the
    engine parses such a point with a direct loop — no continuation
    closures, no memo traffic, no derivation lists. When the branches'
    prediction sets overlap even at k = 2, the point commits {e per
    lookahead} ({!Partial}): the table still picks the branch wherever
    only one is viable, and marks the overlapping lookaheads
    {!ambiguous}, where the engine keeps the memoized backtracking
    semantics. *)

type decision =
  | Always  (** fewer than two branches: nothing to choose *)
  | Commit1 of int array
      (** [table.(tid)] is the branch committed to by one token of
          lookahead, or [-1] when no branch can succeed *)
  | Commit2 of int array * int array array
      (** first-token table as in [Commit1], with [-2] marking entries
          decided by the second token via the row [rows.(tid1)]:
          [rows.(tid1).(tid2) = branch | -1]; first tokens not marked [-2]
          have the empty row *)
  | Partial of int array * int array array
      (** the prediction sets overlap at k = 2: laid out as [Commit2], but
          an entry of the first-token table or of a second-token row may
          be {!ambiguous} — two or more branches are viable for that
          lookahead, so only backtracking can decide there *)
  | Fallback
      (** no lookahead analysis ([~dispatch:false], unreachable rules):
          always backtrack *)

val ambiguous : int
(** [-3], the [Partial] table entry for a lookahead on which two or more
    branches are viable. *)

val committed : decision -> bool
(** [true] for [Always], [Commit1], [Commit2]: every lookahead decides. *)

val k_used : decision -> int
(** Tokens of lookahead the decision consumes: 0, 1 or 2 ([Fallback] is
    0). *)

val commits_somewhere : decision -> bool
(** [false] only for [Fallback] and for a [Partial] table none of whose
    entries selects a single branch — a point that can never commit. *)

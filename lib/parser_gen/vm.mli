(** Executor for compiled {!Program} bytecode.

    One tail-recursive loop over explicit integer stacks held in per-domain
    arenas; see the implementation header for its backtracking contract.
    {!exec} parses a statement; {!strict} runs [nt_strict] subtrees for the
    memoized oracle, on a second arena, inside {!exec}'s fallbacks. Each
    arena has one runner per domain, built once per program: a run sets
    its input and resets the stack pointers, and allocates nothing of its
    own. A building run closes every node into the domain's {!Rows}
    arena, which the caller has {!Rows.start}ed. *)

val exec :
  Program.t ->
  ids:int array ->
  n:int ->
  build:bool ->
  fallback:(int -> int -> Engine_types.derivs) ->
  int
(** [exec prog ~ids ~n ~build ~fallback] runs the program's start
    rule over the token-kind ids [ids.(0 .. n-1)] (positions [>= n] read as
    EOF, so a trailing EOF sentinel inside or beyond the array is
    equivalent). The result is [-1] when the run rejects; on acceptance it
    is the root row of the tree in {!Rows.domain} when [build] holds, and
    [0] for a recognition run, which builds no row. A leaf is the index of
    the token it matched.

    [fallback nt pos] must return the priority-ordered derivation stream
    (end position, row) of non-terminal [nt] at [pos], as the memoized
    engine's [nonterm_results] does. The VM takes the first end and keeps
    the unforced tail as a choice point; the tail is forced only when a
    later failure backtracks into it, so an alternative the oracle has not
    yet derived is derived only if the parse needs it. A choice whose tail
    forces to {!Engine_types.Nil} is popped and backtracking carries on.

    A rejection leaves the caller to decide whether to re-derive on the
    pure backtracking path (for error reporting). *)

val strict :
  Program.t -> ids:int array -> n:int -> build:bool -> int -> int -> int
(** [strict prog ~ids ~n ~build nt pos] parses the [nt_strict]
    non-terminal [nt] at [pos] over the same tokens as {!exec}, on the
    domain's second arena, whatever follows it: the end position, [-1] on
    failure (a [-1] dispatch entry fails the run, even before an optional
    phrase), or {!Predict.ambiguous} at a [-3] entry, however deep. *)

val strict_row : unit -> int
(** The row of the node the domain's last accepted building {!strict} run
    closed. *)

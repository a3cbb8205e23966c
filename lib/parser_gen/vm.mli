(** Executor for compiled {!Program} bytecode.

    One tail-recursive loop over explicit integer stacks held in per-domain
    arenas; see the implementation header for its backtracking contract.
    {!exec} parses a statement; {!strict} runs [nt_strict] subtrees for the
    memoized oracle, on a second arena, inside {!exec}'s fallbacks. *)

val exec :
  Program.t ->
  ids:int array ->
  n:int ->
  build:bool ->
  leaf:(int -> Cst.t) ->
  fallback:(int -> int -> Engine_types.derivs) ->
  Cst.t option
(** [exec prog ~ids ~n ~build ~leaf ~fallback] runs the program's start
    rule over the token-kind ids [ids.(0 .. n-1)] (positions [>= n] read as
    EOF, so a trailing EOF sentinel inside or beyond the array is
    equivalent).

    [leaf i] materializes the CST leaf for token [i]; it is only called when
    [build] is true — recognition runs ([build = false]) never touch the CST
    stack and return a dummy node on acceptance.

    [fallback nt pos] must return the priority-ordered derivation stream
    (end position, children) of non-terminal [nt] at [pos], as the memoized
    engine's [nonterm_results] does. The VM takes the first end and keeps
    the unforced tail as a choice point; the tail is forced only when a
    later failure backtracks into it, so an alternative the oracle has not
    yet derived is derived only if the parse needs it. A choice whose tail
    forces to {!Engine_types.Nil} is popped and backtracking carries on.

    [None] means this run rejected; the caller decides whether to re-derive
    on the pure backtracking path (for error reporting). *)

type strict = {
  run : int -> int -> int;
      (** [run nt pos] parses the [nt_strict] non-terminal [nt] at [pos],
          whatever follows it: the end position, [-1] on failure (a [-1]
          dispatch entry fails the run, even before an optional phrase),
          or {!Predict.ambiguous} at a [-3] entry, however deep. *)
  children : unit -> Cst.t list;
      (** the last accepted node's children ([[]] without [build]) *)
}

val strict :
  Program.t ->
  ids:int array ->
  n:int ->
  build:bool ->
  leaf:(int -> Cst.t) ->
  strict
(** A strict runner over the same tokens as {!exec}, on the domain's
    second arena. Building it allocates the interpreter's closures once;
    a [run] only resets the stack pointers, and allocates nothing when
    not building. *)

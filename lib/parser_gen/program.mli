(** Flat bytecode programs compiled from a classified grammar.

    {!Engine.generate} lowers each [nt_fast] non-terminal — one whose own
    choice points all committed under LL(1)/LL(2) prediction, or whose
    rule-level choice commits per lookahead — into a single
    contiguous [int array] of opcodes plus dense dispatch side tables. The
    {!Vm} executes this representation with explicit integer stacks instead
    of walking the boxed {!Engine_types.iterm} trees: no closures, no ADT
    matching, no pointer chasing on the accept path.

    The compiled program is part of the {!Engine.t} built at generation
    time, so it is cached alongside the front-end by [Service.Cache] and
    shared freely across domains (it is immutable after [compile]).

    See DESIGN.md for the opcode table and the fallback contract. *)

type t

val compile :
  nt_names:string array ->
  nt_fast:bool array ->
  rules:(Engine_types.iseq * Engine_types.pred) array array ->
  alt_dispatch:Predict.decision array ->
  start:int ->
  t
(** Lower every [nt_fast] rule. References to non-fast rules become [FB]
    fallback boundaries; the VM resolves those by calling back into the
    memoized engine. A rule-level [Partial] choice compiles to the [D2] at
    its rule's entry, whose ambiguous entries turn the entering [CALL]
    into the same boundary. [start] must be a rule id; when that rule is
    not [nt_fast] the program boots with [FB start], so every grammar
    yields a runnable program. *)

val entry : t -> int -> int
(** Entry address of a non-terminal's compiled body, [-1] when the rule was
    not compiled (not [nt_fast]). *)

val start_entry : t -> int
(** [entry] of the grammar's start symbol: [-1] when the start rule is not
    compiled and the program boots through [FB start]. *)

val compiled_nts : t -> int
(** Number of non-terminals with compiled bodies. *)

val pp : t Fmt.t
(** Disassembler, for debugging and docs. *)

(** {1 VM interface}

    The raw representation, consumed by {!Vm.exec}. Opcode values are
    stable within a build; nothing outside [parser_gen] should interpret
    them. *)

val code : t -> int array

val op_halt : int
val op_match : int
val op_call : int
val op_ret : int
val op_jmp : int
val op_d1 : int
val op_d2 : int
val op_fb : int
val op_spush : int
val op_sloop : int
val op_scope : int
val op_commit : int

val t1 : t -> int array array
val t2_first : t -> int array array
val t2_second : t -> int array array array

val nt_name : t -> int -> string
(** CST label of a non-terminal (used by the VM when reducing). *)

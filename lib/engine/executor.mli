(** Query and statement execution over the catalog.

    Each statement is compiled once, against the catalog, into closures,
    and then run. Column references resolve to a (scope depth, slot) pair,
    rows are [Value.t] arrays read straight from table storage, equi-joins
    hash their right input, grouping and deduplication hash their keys,
    and an uncorrelated subquery runs at most once per statement. There
    are no indexes and no cost-based planning: tables are scanned in full
    and ORDER BY sorts. Compiling raises nothing; errors surface when
    evaluation reaches them, in the order of a tree walk over the
    statement (the former interpreter, kept as the test oracle). *)

type result_set = {
  columns : string list;
  rows : Value.t list list;
}

exception Error of string
(** Raised on semantic errors: unknown tables/columns, type errors,
    constraint violations, unsupported constructs. *)

type outcome =
  | Rows of result_set          (** queries *)
  | Affected of int             (** DML row counts *)
  | Done of string              (** DDL/DCL/transaction acknowledgements *)

val run_query : Catalog.t -> Sql_ast.Ast.query -> result_set
val run_statement : Catalog.t -> Sql_ast.Ast.statement -> outcome
(** Executes everything except transaction statements, which the
    {!Database} layer handles (it owns the snapshot machinery). Raises
    {!Error}. *)

val pp_result_set : result_set Fmt.t

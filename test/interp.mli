(** The engine's former tree-walking interpreter: the baseline of the
    differential executor test and of the allocation gate. Same types,
    same [Error] exception and same contract as {!Engine.Executor}. *)

val run_query : Engine.Catalog.t -> Sql_ast.Ast.query -> Engine.Executor.result_set

val run_statement :
  Engine.Catalog.t -> Sql_ast.Ast.statement -> Engine.Executor.outcome

(** Lowering a parse's tree to the SQL AST.

    The lowering reads the flat rows a parse builds ({!Parser_gen.Rows}),
    finding a node's children by node label and token kind, which makes it
    independent of the exact alternative shapes a feature composition
    produced: a dialect that omits features simply produces trees without
    the corresponding nodes. No {!Parser_gen.Cst.t} is built on the way. The
    [WINDOW] clause is recognized by the grammar but has no AST
    counterpart; it is ignored here (parse-only feature).

    Dynamic parameter markers are numbered from 1 in lexical order within
    one call, so calls on several domains at once number their own. *)

open Sql_ast

type error = {
  construct : string;  (** the label of the node being lowered when lowering failed *)
  message : string;
}

val pp_error : error Fmt.t

val rows : Parser_gen.Rows.tree -> (Ast.statement, error) result
(** Lower the tree of a [sql_statement] parse. The tree must still be
    valid ({!Parser_gen.Rows}); lowering reads it and the token stream
    under it, and is done with both when it returns. *)

val statement : Parser_gen.Cst.t -> (Ast.statement, error) result
(** Lower a [sql_statement] CST: {!rows} of {!Parser_gen.Rows.of_cst}, the
    same lowering over a copy of the tree in rows of its own. *)

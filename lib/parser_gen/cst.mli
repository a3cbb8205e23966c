(** Concrete syntax trees.

    A parse builds flat rows ({!Rows}); this tree is their view,
    materialized on request ({!Rows.to_cst}): for printing, the tests and
    the public API. Its inner nodes are labelled with non-terminal names
    and its leaves are the matched tokens. Semantic analyses (the SQL
    lowering) read the rows themselves, by the same labels
    ({!Rows.reader}). *)

type t =
  | Node of string * t list  (** non-terminal name and children in order *)
  | Leaf of Lexing_gen.Token.t

val label : t -> string
(** [label t] is the node's non-terminal name, or the token kind of a
    leaf. *)

val children : t -> t list
(** Children of a node; [[]] for leaves. *)

val pp : t Fmt.t
(** S-expression style rendering: the text [sqlpl parse] prints and the
    service returns in [cst] mode. Those write it with {!Rows.render},
    which reproduces [Fmt.str "%a" pp] byte for byte from a parse's rows;
    [pp] is its oracle. *)

(** Concrete syntax trees.

    A parse builds flat rows ({!Rows}); this tree is their view,
    materialized on request ({!Rows.to_cst}). Its inner nodes are labelled
    with non-terminal names and its leaves are the matched tokens. Semantic
    analyses (e.g. the SQL lowering) navigate the CST by label, which keeps
    them robust against the exact shape a particular feature composition
    produced. *)

type t =
  | Node of string * t list  (** non-terminal name and children in order *)
  | Leaf of Lexing_gen.Token.t

val label : t -> string
(** [label t] is the node's non-terminal name, or the token kind of a
    leaf. *)

val children : t -> t list
(** Children of a node; [[]] for leaves. *)

val child : t -> string -> t option
(** [child t lbl] is the first direct child with the given label (node name
    or token kind). *)

val children_labelled : t -> string -> t list
(** All direct children with the given label. *)

val descendant : t -> string -> t option
(** First node with the given label in a pre-order walk (including [t]
    itself). *)

val token : t -> Lexing_gen.Token.t option
(** The token of a leaf, [None] for nodes. *)

val token_text : t -> string option
(** The text of a leaf token. *)

val first_token : t -> Lexing_gen.Token.t option
(** Leftmost token in the subtree. *)

val tokens : t -> Lexing_gen.Token.t list
(** All tokens of the subtree, in source order. *)

val node_count : t -> int

val pp : t Fmt.t
(** S-expression style rendering: the text [sqlpl parse] prints and the
    service returns in [cst] mode. Those write it with {!Rows.render},
    which reproduces [Fmt.str "%a" pp] byte for byte from a parse's rows;
    [pp] is its oracle. *)

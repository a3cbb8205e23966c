(** Concrete syntax trees.

    A generated parser produces a CST whose inner nodes are labelled with
    non-terminal names and whose leaves are the matched tokens. Semantic
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
(** S-expression style rendering, useful in tests and debugging. *)

val render : Buffer.t -> t -> unit
(** [render b t] appends [Fmt.str "%a" pp t] to [b], computed without
    Format and without allocating beyond [b]'s own growth. A node that
    starts at column [col] is printed on one line iff its flat width is
    less than [78 - col]; otherwise each child starts a new line indented
    [min 68 (col + 2)] and [)] follows the last child. Each width check
    stops as soon as the width reaches [78 - col], so rendering is linear
    in the tree. [pp] is the oracle the differential tests hold this
    to. *)

val to_string : t -> string
(** [to_string t] is [render] into a fresh buffer. Callers that render
    many trees (the service's reply frames) render into one reused buffer
    instead. *)

(** Flat CST rows: what a parse builds.

    Every node a parse closes is appended to a row arena as one row of
    four [int]s: its rule id, its children as a range of a shared [kids]
    array, and its flat rendered width (the length of its one-line
    {!Cst.pp} text), summed from its children's when it closes. A child is
    a row id ([>= 0]) or a leaf: the index of a token in the stream the
    parse read, never a {!Lexing_gen.Token.t}. A row's token span is its
    first child's start and its last child's stop; a row without children
    keeps its position in place of the range. Building a tree thus writes
    ints into arrays that the domain reuses from parse to parse.

    {!render} writes a tree's {!Cst.pp} text straight into an {!Out.t},
    taking each node's layout from its stored width; {!to_cst}
    materializes the {!Cst.t} view.

    {2 Validity}

    The parser appends to its domain's arena ({!domain}), which the next
    parse on that domain resets: a {!tree} is valid until then, and using
    it afterwards raises [Invalid_argument]. A tree over a scanner's
    struct-of-arrays stream also reads that stream, which the next
    [Scanner.scan_soa] on the domain overwrites; consume the tree (render
    or materialize it) before the next scan. *)

type tokens =
  | Soa of Lexing_gen.Scanner.t * Lexing_gen.Scanner.soa
      (** tokens read in place from the scanner's stream *)
  | Tokens of Lexing_gen.Token.t array  (** materialized tokens *)
(** The token stream a tree's leaves index. *)

type t
(** A row arena. *)

val create : unit -> t
(** A fresh arena, for trees built outside a parse. *)

val domain : unit -> t
(** The calling domain's arena, the one the parser appends to. *)

val start : t -> names:string array -> tokens -> unit
(** Empty the arena for a new tree: rule [r] is labelled [names.(r)] and
    leaves index [tokens]. Trees built before are invalidated. An arena
    that grew past 65,536 rows or 262,144 kids returns to its initial
    capacity. *)

val leaf : int -> int
(** The child code of token [i]: [lnot i]. *)

val close : t -> rule:int -> pos:int -> int array -> int -> int -> int
(** [close a ~rule ~pos stack lo hi] appends the row of a [rule] node whose
    children are the codes [stack.(lo .. hi - 1)], in order, and returns
    its id. [pos] is the token position where the node ends; an empty
    node spans the empty range there. *)

val close_list : t -> rule:int -> pos:int -> int list -> int
(** {!close} over children given last first. *)

(** {1 Trees} *)

type tree
(** A child code (a row, or a leaf) as the root of a tree in its arena. A
    parse's tree is always rooted at a row. *)

val tree : t -> int -> tree
(** [tree a c] is the tree under child code [c] of [a], valid until [a]'s
    next {!start}. *)

val root : tree -> int

val span : tree -> int -> int * int
(** [span t r] is the row's token range [[first, stop)], read down its
    first and last children. *)

val width : tree -> int -> int
(** The row's flat rendered width: the length of [Cst.pp] of its subtree
    printed on one line. *)

val render : Out.t -> json:bool -> tree -> unit
(** [render o ~json t] appends [Fmt.str "%a" Cst.pp (to_cst t)] to [o],
    escaped as a JSON string body ({!Out.add_json}) when [json] holds. A
    node that starts at column [col] is printed on one line iff its flat
    width is less than [78 - col]; otherwise each child starts a new line
    indented [min 68 (col + 2)] and [)] follows the last child. Widths are
    read from the rows, so rendering measures nothing and allocates
    nothing beyond [o]'s growth. [Cst.pp] is the oracle the tests hold
    this to. *)

val to_cst : tree -> Cst.t
(** The tree as a {!Cst.t}: leaves carry the stream's tokens (read with
    {!Lexing_gen.Scanner.token_of_soa} from a [Soa] stream). *)

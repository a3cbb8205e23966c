(* Flat CST rows: every node a parse closes is one row of four ints in one
   array, and its children one range of a shared [kids] array, so building
   a tree writes ints into arrays the domain reuses from parse to parse. A
   child is a row id ([>= 0]) or a leaf, the token index [i] stored as
   [lnot i]. A row also records its flat rendered width, summed from its
   children's when it closes, which is all [render] needs to lay it out.
   Its token span is its first child's start and its last child's stop; a
   row without children keeps its position where the range of its
   children would be. *)

module Scanner = Lexing_gen.Scanner
module Token = Lexing_gen.Token
module Interner = Lexing_gen.Interner

type tokens =
  | Soa of Scanner.t * Scanner.soa
  | Tokens of Token.t array

(* Row [r] is [data.(stride * r .. stride * r + 3)]: its rule, the start
   of its children in [kids] (its position when it has none), their
   number, and its width. *)
let stride = 4
let f_rule = 0
let f_kid_at = 1
let f_kid_n = 2
let f_width = 3

type t = {
  mutable names : string array;
  mutable tokens : tokens;
  mutable epoch : int;  (* bumped by every [start]: trees of older epochs are stale *)
  mutable data : int array;
  mutable rows : int;
  mutable kids : int array;
  mutable n_kids : int;
  (* per kind id of [scanner]'s interner: the name, and the delimiter of a
     quoted kind or ['\000'] *)
  mutable scanner : Scanner.t option;
  mutable kind_names : string array;
  mutable kind_quote : Bytes.t;
}

(* The arrays start on the minor heap (256 words at most); one that grew
   past [shrink_above] slots (an outlier statement) goes back to that size
   at the next [start]. *)
let initial = 256
let shrink_above = 1 lsl 18

let create () =
  {
    names = [||];
    tokens = Tokens [||];
    epoch = 0;
    data = Array.make (stride * 64) 0;
    rows = 0;
    kids = Array.make initial 0;
    n_kids = 0;
    scanner = None;
    kind_names = [||];
    kind_quote = Bytes.empty;
  }

let key = Domain.DLS.new_key create
let domain () = Domain.DLS.get key

let learn_kinds a sc =
  match a.scanner with
  | Some known when known == sc -> ()
  | _ ->
    let interner = Scanner.interner sc in
    let n = Interner.size interner in
    a.kind_names <- Array.init n (Interner.name interner);
    a.kind_quote <- Bytes.init n (Scanner.quote_of sc);
    a.scanner <- Some sc

let start a ~names tokens =
  if Array.length a.data > shrink_above then a.data <- Array.make (stride * 64) 0;
  if Array.length a.kids > shrink_above then a.kids <- Array.make initial 0;
  (match tokens with Soa (sc, _) -> learn_kinds a sc | Tokens _ -> ());
  a.names <- names;
  a.tokens <- tokens;
  a.epoch <- a.epoch + 1;
  a.rows <- 0;
  a.n_kids <- 0

let leaf i = lnot i

(* --- token text ----------------------------------------------------------- *)

(* A token's text is what [Scanner.text_at] builds: its source bytes, or
   for a quoted kind the bytes between the delimiters with each doubled
   delimiter read once. It is measured, compared and written here in place,
   without building it. *)
let rec quoted_length src q hi j n =
  if j >= hi then n
  else quoted_length src q hi (if String.unsafe_get src j = q then j + 2 else j + 1) (n + 1)

(* [s] equals the text in [src.[j .. hi - 1]] ([q] its delimiter, or
   ['\000']), given that the lengths are equal. *)
let rec text_is src q hi j s k =
  j >= hi
  || String.unsafe_get src j = String.unsafe_get s k
     && text_is src q hi (if q <> '\000' && String.unsafe_get src j = q then j + 2 else j + 1) s (k + 1)

let text_length a (soa : Scanner.soa) i =
  if i >= soa.count then 0
  else
    let start = Array.unsafe_get soa.starts i and stop = Array.unsafe_get soa.stops i in
    match Bytes.unsafe_get a.kind_quote (Array.unsafe_get soa.kind_ids i) with
    | '\000' -> stop - start
    | q -> quoted_length soa.src q (stop - 1) (start + 1) 0

(* [Cst.pp] prints a leaf as its kind alone when the text is empty or
   equal to the kind, and as [kind(text)] otherwise: [shows_text] tells
   which, given the text's length [n]. *)
let shows_text a (soa : Scanner.soa) i kind n =
  n > 0
  && (n <> String.length kind
     ||
     let start = Array.unsafe_get soa.starts i and stop = Array.unsafe_get soa.stops i in
     match Bytes.unsafe_get a.kind_quote (Array.unsafe_get soa.kind_ids i) with
     | '\000' -> not (text_is soa.src '\000' stop start kind 0)
     | q -> not (text_is soa.src q (stop - 1) (start + 1) kind 0))

let token_width (tok : Token.t) =
  if String.equal tok.kind tok.text || tok.text = "" then String.length tok.kind
  else String.length tok.kind + String.length tok.text + 2

let leaf_width a i =
  match a.tokens with
  | Tokens toks -> token_width toks.(i)
  | Soa (_, soa) ->
    let kind = Array.unsafe_get a.kind_names (Array.unsafe_get soa.kind_ids i) in
    let n = text_length a soa i in
    if shows_text a soa i kind n then String.length kind + n + 2
    else String.length kind

(* --- building --------------------------------------------------------------- *)

let grow_int (x : int array) need =
  let rec double cap = if cap >= need then cap else double (2 * cap) in
  let y = Array.make (double (2 * Array.length x)) 0 in
  Array.blit x 0 y 0 (Array.length x);
  y

(* Room for row [r] and [n] more kids. *)
let reserve a r n =
  if (stride * r) + stride > Array.length a.data then
    a.data <- grow_int a.data ((stride * r) + stride);
  if a.n_kids + n > Array.length a.kids then a.kids <- grow_int a.kids (a.n_kids + n)
[@@inline]

(* Row [r] for [rule] over the [n] children written at [at], whose widths
   and separating spaces sum to [width]; an empty node keeps [pos], where
   it ends, in place of [at]. *)
let set_row a r ~rule ~pos ~at ~n ~width =
  let d = a.data and base = stride * r in
  Array.unsafe_set d (base + f_rule) rule;
  Array.unsafe_set d (base + f_kid_at) (if n = 0 then pos else at);
  Array.unsafe_set d (base + f_kid_n) n;
  Array.unsafe_set d (base + f_width)
    (width + String.length (Array.unsafe_get a.names rule) + 2);
  a.n_kids <- at + n;
  a.rows <- r + 1;
  r
[@@inline]

let close a ~rule ~pos (stack : int array) lo hi =
  let n = hi - lo and r = a.rows in
  reserve a r n;
  let at = a.n_kids and kids = a.kids and d = a.data in
  let width = ref n in
  for k = 0 to n - 1 do
    let c = Array.unsafe_get stack (lo + k) in
    Array.unsafe_set kids (at + k) c;
    width :=
      !width
      + if c >= 0 then Array.unsafe_get d ((stride * c) + f_width)
        else leaf_width a (lnot c)
  done;
  set_row a r ~rule ~pos ~at ~n ~width:!width

(* Children arrive last first; they are written back to front. *)
let rec fill a k width = function
  | [] -> width
  | c :: rest ->
    Array.unsafe_set a.kids k c;
    fill a (k - 1)
      (width
      + if c >= 0 then Array.unsafe_get a.data ((stride * c) + f_width)
        else leaf_width a (lnot c))
      rest

let close_list a ~rule ~pos rev_children =
  let n = List.length rev_children and r = a.rows in
  reserve a r n;
  let at = a.n_kids in
  let width = fill a (at + n - 1) n rev_children in
  set_row a r ~rule ~pos ~at ~n ~width

(* --- trees ------------------------------------------------------------------ *)

type tree = { arena : t; epoch : int; root : int }

let tree a root = { arena = a; epoch = a.epoch; root }

let valid t =
  if t.epoch <> t.arena.epoch then
    invalid_arg "Rows: the tree was invalidated by a later parse on its arena";
  t.arena

let root t = t.root

(* Row [r]'s offset in [data]. *)
let row a r =
  if r < 0 || r >= a.rows then invalid_arg "Rows: no such row";
  stride * r

let rec first a c =
  if c < 0 then lnot c
  else
    let at = a.data.((stride * c) + f_kid_at) in
    if a.data.((stride * c) + f_kid_n) = 0 then at else first a a.kids.(at)

let rec stop a c =
  if c < 0 then lnot c + 1
  else
    let at = a.data.((stride * c) + f_kid_at) and n = a.data.((stride * c) + f_kid_n) in
    if n = 0 then at else stop a a.kids.(at + n - 1)

let span t r =
  let a = valid t in
  ignore (row a r);
  (first a r, stop a r)

let width t r =
  let a = valid t in
  a.data.(row a r + f_width)

(* --- rendering -------------------------------------------------------------- *)

(* The layout [Cst.pp] gets from Format under [Fmt.str] (margin 78,
   maximum indent 68): a node at column [col] is printed flat iff its flat
   width is below [78 - col]; otherwise each child starts a new line
   indented [min 68 (col + 2)] and [)] follows the last child. The widths
   were summed when the rows closed, so no node is measured here, and room
   for a flat subtree is reserved at once from its width: the writes below
   are unchecked. *)
let margin = 78
let max_indent = 68

(* A line break and the deepest indent, raw and JSON-escaped: a child's
   line starts with a prefix of one of them. *)
let break = "\n" ^ String.make max_indent ' '
let json_break = "\\u000a" ^ String.make max_indent ' '

(* Room for [n] bytes of text: six per byte when escaped. *)
let room json n = if json then 6 * n else n

(* [Out]'s writes, unchecked once [reserve] has made room; local, so that
   the renderer's calls to them are direct. *)
let reserve (o : Out.t) n = if o.len + n > Bytes.length o.buf then Out.reserve o n

let add_char (o : Out.t) c =
  Bytes.unsafe_set o.buf o.len c;
  o.len <- o.len + 1

let add_sub (o : Out.t) s off n =
  let buf = o.buf and len = o.len in
  for i = 0 to n - 1 do
    Bytes.unsafe_set buf (len + i) (String.unsafe_get s (off + i))
  done;
  o.len <- len + n

let put o json s off n =
  if json then Out.unsafe_add_json o s off n else add_sub o s off n

let put_string o json s = put o json s 0 (String.length s)

(* A quoted text in pieces: each ends just after a delimiter, whose double
   is skipped. *)
let rec put_quoted o json src q hi from j =
  if j >= hi then put o json src from (j - from)
  else if String.unsafe_get src j = q then begin
    put o json src from (j + 1 - from);
    put_quoted o json src q hi (j + 2) (j + 2)
  end
  else put_quoted o json src q hi from (j + 1)

let put_leaf a o json i =
  match a.tokens with
  | Tokens toks ->
    let tok = toks.(i) in
    put_string o json tok.kind;
    if not (String.equal tok.kind tok.text || tok.text = "") then begin
      add_char o '(';
      put_string o json tok.text;
      add_char o ')'
    end
  | Soa (_, soa) ->
    let kind = a.kind_names.(soa.kind_ids.(i)) in
    put_string o json kind;
    if shows_text a soa i kind (text_length a soa i) then begin
      add_char o '(';
      let start = soa.starts.(i) and stop = soa.stops.(i) in
      (match Bytes.unsafe_get a.kind_quote soa.kind_ids.(i) with
      | '\000' -> put o json soa.src start (stop - start)
      | q -> put_quoted o json soa.src q (stop - 1) (start + 1) (start + 1));
      add_char o ')'
    end

let rec flat a o json c =
  if c < 0 then put_leaf a o json (lnot c)
  else begin
    let d = a.data and base = stride * c in
    add_char o '(';
    put_string o json (Array.unsafe_get a.names (Array.unsafe_get d (base + f_rule)));
    let at = Array.unsafe_get d (base + f_kid_at) in
    for k = at to at + Array.unsafe_get d (base + f_kid_n) - 1 do
      add_char o ' ';
      flat a o json (Array.unsafe_get a.kids k)
    done;
    add_char o ')'
  end

let rec layout a o json col c =
  if c < 0 then begin
    reserve o (room json (leaf_width a (lnot c)));
    put_leaf a o json (lnot c)
  end
  else
    let d = a.data and base = stride * c in
    let width = Array.unsafe_get d (base + f_width) in
    if width < margin - col then begin
      reserve o (room json width);
      flat a o json c
    end
    else begin
      let label = Array.unsafe_get a.names (Array.unsafe_get d (base + f_rule)) in
      reserve o (1 + room json (String.length label));
      add_char o '(';
      put_string o json label;
      let indent = if col + 2 < max_indent then col + 2 else max_indent in
      let brk = if json then json_break else break in
      let brk_len = (if json then 6 else 1) + indent in
      let at = Array.unsafe_get d (base + f_kid_at) in
      for k = at to at + Array.unsafe_get d (base + f_kid_n) - 1 do
        reserve o brk_len;
        add_sub o brk 0 brk_len;
        layout a o json indent (Array.unsafe_get a.kids k)
      done;
      reserve o 1;
      add_char o ')'
    end

let render o ~json t = layout (valid t) o json 0 t.root

(* --- the tree view ------------------------------------------------------------ *)

let leaf_token a i =
  match a.tokens with
  | Tokens toks -> toks.(i)
  | Soa (sc, soa) -> Scanner.token_of_soa sc soa i

let rec cst_node a r =
  let d = a.data and base = stride * r in
  let at = Array.unsafe_get d (base + f_kid_at) in
  Cst.Node
    ( Array.unsafe_get a.names (Array.unsafe_get d (base + f_rule)),
      cst_kids a at (at + Array.unsafe_get d (base + f_kid_n) - 1) [] )

and cst_kids a lo k acc =
  if k < lo then acc
  else
    let c = Array.unsafe_get a.kids k in
    let kid = if c >= 0 then cst_node a c else Cst.Leaf (leaf_token a (lnot c)) in
    cst_kids a lo (k - 1) (kid :: acc)

let to_cst t =
  let a = valid t in
  let c = t.root in
  if c >= 0 then cst_node a c else Cst.Leaf (leaf_token a (lnot c))

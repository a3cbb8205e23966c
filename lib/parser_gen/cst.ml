type t =
  | Node of string * t list
  | Leaf of Lexing_gen.Token.t

let label = function
  | Node (l, _) -> l
  | Leaf tok -> tok.Lexing_gen.Token.kind

let children = function
  | Node (_, cs) -> cs
  | Leaf _ -> []

let child t lbl =
  List.find_opt (fun c -> String.equal (label c) lbl) (children t)

let children_labelled t lbl =
  List.filter (fun c -> String.equal (label c) lbl) (children t)

let rec descendant t lbl =
  if String.equal (label t) lbl then Some t
  else
    List.fold_left
      (fun acc c -> match acc with Some _ -> acc | None -> descendant c lbl)
      None (children t)

let token = function
  | Leaf tok -> Some tok
  | Node _ -> None

let token_text t = Option.map (fun tok -> tok.Lexing_gen.Token.text) (token t)

let rec first_token = function
  | Leaf tok -> Some tok
  | Node (_, cs) ->
    List.fold_left
      (fun acc c -> match acc with Some _ -> acc | None -> first_token c)
      None cs

let rec tokens = function
  | Leaf tok -> [ tok ]
  | Node (_, cs) -> List.concat_map tokens cs

let rec node_count = function
  | Leaf _ -> 1
  | Node (_, cs) -> 1 + List.fold_left (fun n c -> n + node_count c) 0 cs

let rec pp ppf = function
  | Leaf tok -> Lexing_gen.Token.pp ppf tok
  | Node (l, cs) ->
    Fmt.pf ppf "@[<hv 2>(%s%a)@]" l
      Fmt.(list ~sep:nop (fun ppf c -> Fmt.pf ppf "@ %a" pp c))
      cs

(* Every box [pp] opens is [@[<hv 2>(label@ child…)@]], and under
   [Fmt.str]'s margin (78) and maximum indent (68) Format's queue reduces
   such boxes to the rule stated in the interface. [render] decides each
   node's layout with a bounded width check: a node at column [col] fits
   iff its flat width is below [margin - col], so measuring stops once the
   running width reaches that limit. A check thus visits at most about 78
   nodes (every node adds at least one column), which keeps the render
   linear, and neither it nor the writers allocate. *)
let margin = 78
let max_indent = 68
let spaces = String.make max_indent ' '

let leaf_width (tok : Lexing_gen.Token.t) =
  if String.equal tok.kind tok.text || tok.text = "" then String.length tok.kind
  else String.length tok.kind + String.length tok.text + 2

let add_leaf b (tok : Lexing_gen.Token.t) =
  Buffer.add_string b tok.kind;
  if not (String.equal tok.kind tok.text || tok.text = "") then begin
    Buffer.add_char b '(';
    Buffer.add_string b tok.text;
    Buffer.add_char b ')'
  end

(* [w] plus the flat width of the tree, or some value [>= limit] once the
   sum reaches [limit]. *)
let rec measure w limit = function
  | Leaf tok -> w + leaf_width tok
  | Node (l, cs) -> measure_children (w + String.length l + 2) limit cs

and measure_children w limit = function
  | [] -> w
  | c :: cs ->
    if w >= limit then w else measure_children (measure (w + 1) limit c) limit cs

let rec flat b = function
  | Leaf tok -> add_leaf b tok
  | Node (l, cs) ->
    Buffer.add_char b '(';
    Buffer.add_string b l;
    flat_children b cs;
    Buffer.add_char b ')'

and flat_children b = function
  | [] -> ()
  | c :: cs ->
    Buffer.add_char b ' ';
    flat b c;
    flat_children b cs

let rec layout b col = function
  | Leaf tok -> add_leaf b tok
  | Node (l, cs) as node ->
    let limit = margin - col in
    if measure 0 limit node < limit then flat b node
    else begin
      Buffer.add_char b '(';
      Buffer.add_string b l;
      layout_children b (min max_indent (col + 2)) cs;
      Buffer.add_char b ')'
    end

and layout_children b indent = function
  | [] -> ()
  | c :: cs ->
    Buffer.add_char b '\n';
    Buffer.add_substring b spaces 0 indent;
    layout b indent c;
    layout_children b indent cs

let render b t = layout b 0 t

let to_string t =
  let b = Buffer.create 256 in
  render b t;
  Buffer.contents b

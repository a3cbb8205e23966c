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
   such boxes to the rule stated in the interface. Pass one records every
   node's flat width in pre-order; pass two writes the layout, consuming
   those widths in the same order (a node written flat consumes its whole
   subtree's). *)
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

let to_string t =
  let widths = ref (Array.make 64 0) and nodes = ref 0 in
  let rec measure = function
    | Leaf tok -> leaf_width tok
    | Node (l, cs) ->
      let i = !nodes in
      if i = Array.length !widths then begin
        let bigger = Array.make (2 * i) 0 in
        Array.blit !widths 0 bigger 0 i;
        widths := bigger
      end;
      nodes := i + 1;
      let w =
        List.fold_left (fun w c -> w + 1 + measure c) (String.length l + 2) cs
      in
      !widths.(i) <- w;
      w
  in
  let b = Buffer.create (measure t + 16) in
  let widths = !widths and next = ref 0 in
  let rec flat = function
    | Leaf tok -> add_leaf b tok
    | Node (l, cs) ->
      incr next;
      Buffer.add_char b '(';
      Buffer.add_string b l;
      List.iter
        (fun c ->
          Buffer.add_char b ' ';
          flat c)
        cs;
      Buffer.add_char b ')'
  in
  let rec layout col = function
    | Leaf tok -> add_leaf b tok
    | Node (l, cs) as node ->
      if widths.(!next) < margin - col then flat node
      else begin
        incr next;
        let indent = min max_indent (col + 2) in
        Buffer.add_char b '(';
        Buffer.add_string b l;
        List.iter
          (fun c ->
            Buffer.add_char b '\n';
            Buffer.add_substring b spaces 0 indent;
            layout indent c)
          cs;
        Buffer.add_char b ')'
      end
  in
  layout 0 t;
  Buffer.contents b

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

type t =
  | Node of string * t list
  | Leaf of Lexing_gen.Token.t

let label = function
  | Node (l, _) -> l
  | Leaf tok -> tok.Lexing_gen.Token.kind

let children = function
  | Node (_, cs) -> cs
  | Leaf _ -> []

let rec pp ppf = function
  | Leaf tok -> Lexing_gen.Token.pp ppf tok
  | Node (l, cs) ->
    Fmt.pf ppf "@[<hv 2>(%s%a)@]" l
      Fmt.(list ~sep:nop (fun ppf c -> Fmt.pf ppf "@ %a" pp c))
      cs

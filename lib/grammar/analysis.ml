module String_set = Set.Make (String)
module String_map = Map.Make (String)

let lookup m nt = Option.value ~default:String_set.empty (String_map.find_opt nt m)

(* Nullability of a term / sequence given the current nullable set. *)
let rec term_nullable nullable = function
  | Production.Sym (Symbol.Terminal _) -> false
  | Production.Sym (Symbol.Nonterminal n) -> String_set.mem n nullable
  | Production.Opt _ | Production.Star _ -> true
  | Production.Plus ts -> alt_nullable nullable ts
  | Production.Group alts -> List.exists (alt_nullable nullable) alts

and alt_nullable nullable ts = List.for_all (term_nullable nullable) ts

let compute_nullable (g : Cfg.t) =
  let step nullable =
    List.fold_left
      (fun acc (r : Production.t) ->
        if String_set.mem r.lhs acc then acc
        else if List.exists (alt_nullable acc) r.alts then String_set.add r.lhs acc
        else acc)
      nullable g.rules
  in
  let rec fix s =
    let s' = step s in
    if String_set.equal s s' then s else fix s'
  in
  fix String_set.empty

let left_recursive (g : Cfg.t) =
  let nullable = compute_nullable g in
  (* Leftmost non-terminals of a sequence: heads reachable without consuming
     a terminal. *)
  let rec seq_heads acc = function
    | [] -> acc
    | term :: rest ->
      let acc = term_heads acc term in
      if term_nullable nullable term then seq_heads acc rest else acc
  and term_heads acc = function
    | Production.Sym (Symbol.Terminal _) -> acc
    | Production.Sym (Symbol.Nonterminal n) -> String_set.add n acc
    | Production.Opt ts | Production.Star ts | Production.Plus ts ->
      seq_heads acc ts
    | Production.Group alts -> List.fold_left seq_heads acc alts
  in
  let direct =
    List.fold_left
      (fun m (r : Production.t) ->
        let heads =
          List.fold_left (fun s a -> seq_heads s a) String_set.empty r.alts
        in
        String_map.add r.lhs heads m)
      String_map.empty g.rules
  in
  (* Transitive closure; a non-terminal reaching itself is left-recursive. *)
  let rec reaches seen n target =
    let heads = lookup direct n in
    String_set.mem target heads
    || String_set.exists
         (fun h -> (not (String_set.mem h seen)) && reaches (String_set.add h seen) h target)
         heads
  in
  List.filter_map
    (fun (r : Production.t) ->
      if reaches String_set.empty r.lhs r.lhs then Some r.lhs else None)
    g.rules

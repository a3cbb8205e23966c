module String_set = Set.Make (String)
module String_map = Map.Make (String)

type t = {
  nullable : String_set.t;
  first : String_set.t String_map.t;
  follow : String_set.t String_map.t;
}

let lookup m nt = Option.value ~default:String_set.empty (String_map.find_opt nt m)

(* Nullability of a term / sequence given the current nullable set. *)
let rec term_nullable nullable = function
  | Grammar.Production.Sym (Grammar.Symbol.Terminal _) -> false
  | Grammar.Production.Sym (Grammar.Symbol.Nonterminal n) -> String_set.mem n nullable
  | Grammar.Production.Opt _ | Grammar.Production.Star _ -> true
  | Grammar.Production.Plus ts -> alt_nullable nullable ts
  | Grammar.Production.Group alts -> List.exists (alt_nullable nullable) alts

and alt_nullable nullable ts = List.for_all (term_nullable nullable) ts

let compute_nullable (g : Grammar.Cfg.t) =
  let step nullable =
    List.fold_left
      (fun acc (r : Grammar.Production.t) ->
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

(* FIRST of a term / sequence given current per-non-terminal FIRST sets. *)
let rec term_first nullable first = function
  | Grammar.Production.Sym (Grammar.Symbol.Terminal n) -> String_set.singleton n
  | Grammar.Production.Sym (Grammar.Symbol.Nonterminal n) -> lookup first n
  | Grammar.Production.Opt ts | Grammar.Production.Star ts | Grammar.Production.Plus ts ->
    alt_first nullable first ts
  | Grammar.Production.Group alts ->
    List.fold_left
      (fun acc a -> String_set.union acc (alt_first nullable first a))
      String_set.empty alts

and alt_first nullable first = function
  | [] -> String_set.empty
  | term :: rest ->
    let f = term_first nullable first term in
    if term_nullable nullable term then
      String_set.union f (alt_first nullable first rest)
    else f

let compute_first (g : Grammar.Cfg.t) nullable =
  let step first =
    List.fold_left
      (fun acc (r : Grammar.Production.t) ->
        let f =
          List.fold_left
            (fun s a -> String_set.union s (alt_first nullable acc a))
            (lookup acc r.lhs) r.alts
        in
        String_map.add r.lhs f acc)
      first g.rules
  in
  let rec fix m =
    let m' = step m in
    if String_map.equal String_set.equal m m' then m else fix m'
  in
  fix String_map.empty

(* FOLLOW: walk every alternative right-to-left, threading the FIRST set and
   nullability of the remaining suffix ("continuation"). When the suffix is
   nullable, FOLLOW of the rule's lhs flows into the occurrence. *)
let compute_follow (g : Grammar.Cfg.t) nullable first =
  let changed = ref true in
  let follow = ref (String_map.singleton g.start (String_set.singleton "EOF")) in
  let add nt set =
    let cur = lookup !follow nt in
    let next = String_set.union cur set in
    if not (String_set.equal cur next) then begin
      follow := String_map.add nt next !follow;
      changed := true
    end
  in
  (* [cont_first], [cont_nullable] describe what may follow the sequence. *)
  let rec walk_seq lhs seq cont_first cont_nullable =
    match seq with
    | [] -> ()
    | term :: rest ->
      let rest_first = alt_first nullable first rest in
      let rest_nullable = alt_nullable nullable rest in
      let tf =
        if rest_nullable then String_set.union rest_first cont_first
        else rest_first
      and tn = rest_nullable && cont_nullable in
      walk_term lhs term tf tn;
      walk_seq lhs rest cont_first cont_nullable
  and walk_term lhs term cont_first cont_nullable =
    match term with
    | Grammar.Production.Sym (Grammar.Symbol.Terminal _) -> ()
    | Grammar.Production.Sym (Grammar.Symbol.Nonterminal n) ->
      add n cont_first;
      if cont_nullable then add n (lookup !follow lhs)
    | Grammar.Production.Opt ts -> walk_seq lhs ts cont_first cont_nullable
    | Grammar.Production.Star ts | Grammar.Production.Plus ts ->
      (* Inside a repetition the sequence may be followed by another
         iteration of itself. *)
      let self_first = alt_first nullable first ts in
      walk_seq lhs ts (String_set.union self_first cont_first) cont_nullable
    | Grammar.Production.Group alts ->
      List.iter (fun a -> walk_seq lhs a cont_first cont_nullable) alts
  in
  while !changed do
    changed := false;
    List.iter
      (fun (r : Grammar.Production.t) ->
        List.iter
          (fun a -> walk_seq r.lhs a (lookup !follow r.lhs) true)
          r.alts)
      g.rules
  done;
  !follow

let compute g =
  let nullable = compute_nullable g in
  let first = compute_first g nullable in
  let follow = compute_follow g nullable first in
  { nullable; first; follow }

let seq_nullable t alt = alt_nullable t.nullable alt
let seq_first t alt = alt_first t.nullable t.first alt

type conflict = {
  lhs : string;
  alt_a : int;
  alt_b : int;
  overlap : String_set.t;
}

let ll1_conflicts (g : Grammar.Cfg.t) =
  let an = compute g in
  let predict lhs alt =
    let f = alt_first an.nullable an.first alt in
    if alt_nullable an.nullable alt then
      String_set.union f (lookup an.follow lhs)
    else f
  in
  List.concat_map
    (fun (r : Grammar.Production.t) ->
      let predicted = List.map (predict r.lhs) r.alts in
      let indexed = List.mapi (fun i p -> (i, p)) predicted in
      List.concat_map
        (fun (i, pi) ->
          List.filter_map
            (fun (j, pj) ->
              if j <= i then None
              else
                let overlap = String_set.inter pi pj in
                if String_set.is_empty overlap then None
                else Some { lhs = r.lhs; alt_a = i; alt_b = j; overlap })
            indexed)
        indexed)
    g.rules

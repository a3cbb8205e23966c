module String_map = Map.Make (String)

module Seq_set = Set.Make (struct
  type t = string list

  let compare = Stdlib.compare
end)

type t = {
  k : int;
  first_map : Seq_set.t String_map.t;
  follow_map : Seq_set.t String_map.t;
}

let lookup m nt = Option.value ~default:Seq_set.empty (String_map.find_opt nt m)

let rec take n xs =
  match xs with
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* Truncated concatenation: sequences of [a] shorter than [k] are complete
   yields and extend with every continuation from [b]; length-k sequences
   are already saturated. *)
let concat_k k a b =
  Seq_set.fold
    (fun x acc ->
      if List.length x >= k then Seq_set.add x acc
      else
        Seq_set.fold (fun y acc -> Seq_set.add (take k (x @ y)) acc) b acc)
    a Seq_set.empty

(* FIRST_k of the Kleene closure of a phrase with FIRST_k set [s]. *)
let star_closure k s =
  let rec fix acc =
    let acc' = Seq_set.union acc (concat_k k s acc) in
    if Seq_set.equal acc acc' then acc else fix acc'
  in
  fix (Seq_set.singleton [])

let rec term_first k env = function
  | Grammar.Production.Sym (Grammar.Symbol.Terminal t) ->
    Seq_set.singleton [ t ]
  | Grammar.Production.Sym (Grammar.Symbol.Nonterminal n) -> lookup env n
  | Grammar.Production.Opt ts -> Seq_set.add [] (alt_first k env ts)
  | Grammar.Production.Star ts -> star_closure k (alt_first k env ts)
  | Grammar.Production.Plus ts ->
    let f = alt_first k env ts in
    concat_k k f (star_closure k f)
  | Grammar.Production.Group alts ->
    List.fold_left
      (fun acc a -> Seq_set.union acc (alt_first k env a))
      Seq_set.empty alts

and alt_first k env = function
  | [] -> Seq_set.singleton []
  | term :: rest -> concat_k k (term_first k env term) (alt_first k env rest)

let compute_first k (g : Grammar.Cfg.t) =
  let step env =
    List.fold_left
      (fun acc (r : Grammar.Production.t) ->
        let f =
          List.fold_left
            (fun s a -> Seq_set.union s (alt_first k acc a))
            (lookup acc r.lhs) r.alts
        in
        String_map.add r.lhs f acc)
      env g.rules
  in
  let rec fix env =
    let env' = step env in
    if String_map.equal Seq_set.equal env env' then env else fix env'
  in
  fix String_map.empty

(* FOLLOW_k: walk every alternative threading the FIRST_k set of the full
   continuation (suffix of the alternative concatenated with FOLLOW_k of the
   rule's left-hand side); mirrors Analysis.compute_follow. *)
let compute_follow k (g : Grammar.Cfg.t) first_map =
  let changed = ref true in
  let follow =
    ref (String_map.singleton g.start (Seq_set.singleton [ "EOF" ]))
  in
  let add nt set =
    let cur = lookup !follow nt in
    let next = Seq_set.union cur set in
    if not (Seq_set.equal cur next) then begin
      follow := String_map.add nt next !follow;
      changed := true
    end
  in
  let rec walk_seq lhs seq cont =
    match seq with
    | [] -> ()
    | term :: rest ->
      let tail = concat_k k (alt_first k first_map rest) cont in
      walk_term lhs term tail;
      walk_seq lhs rest cont
  and walk_term lhs term cont =
    match term with
    | Grammar.Production.Sym (Grammar.Symbol.Terminal _) -> ()
    | Grammar.Production.Sym (Grammar.Symbol.Nonterminal n) -> add n cont
    | Grammar.Production.Opt ts -> walk_seq lhs ts cont
    | Grammar.Production.Star ts | Grammar.Production.Plus ts ->
      (* Inside a repetition the phrase may be followed by further
         iterations of itself before the outer continuation. *)
      let self = star_closure k (alt_first k first_map ts) in
      walk_seq lhs ts (concat_k k self cont)
    | Grammar.Production.Group alts ->
      List.iter (fun a -> walk_seq lhs a cont) alts
  in
  while !changed do
    changed := false;
    List.iter
      (fun (r : Grammar.Production.t) ->
        List.iter (fun a -> walk_seq r.lhs a (lookup !follow r.lhs)) r.alts)
      g.rules
  done;
  !follow

let compute ~k g =
  if k < 1 || k > 2 then
    invalid_arg "Lookahead.compute: k must be 1 or 2";
  let first_map = compute_first k g in
  let follow_map = compute_follow k g first_map in
  { k; first_map; follow_map }

let first t nt = lookup t.first_map nt
let follow t nt = lookup t.follow_map nt
let seq_first t alt = alt_first t.k t.first_map alt

let predict t ~lhs alt =
  concat_k t.k (seq_first t alt) (follow t lhs)

type conflict = {
  lhs : string;
  alt_a : int;
  alt_b : int;
  witnesses : string list list;
}

let shortest_first a b =
  match Int.compare (List.length a) (List.length b) with
  | 0 -> Stdlib.compare a b
  | n -> n

let conflicts ~k (g : Grammar.Cfg.t) =
  let t = compute ~k g in
  List.concat_map
    (fun (r : Grammar.Production.t) ->
      let predicted = List.map (predict t ~lhs:r.lhs) r.alts in
      let indexed = List.mapi (fun i p -> (i, p)) predicted in
      List.concat_map
        (fun (i, pi) ->
          List.filter_map
            (fun (j, pj) ->
              if j <= i then None
              else
                let overlap = Seq_set.inter pi pj in
                if Seq_set.is_empty overlap then None
                else
                  Some
                    {
                      lhs = r.lhs;
                      alt_a = i;
                      alt_b = j;
                      witnesses =
                        List.sort shortest_first (Seq_set.elements overlap);
                    })
            indexed)
        indexed)
    g.rules

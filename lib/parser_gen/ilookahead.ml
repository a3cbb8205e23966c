(* The LL(k <= 2) analysis: Oracle.Lookahead's FIRST_k / FOLLOW_k
   fixpoints, prediction claim tables and conflicts, computed over
   bitset-represented sequence sets. A set of token sequences of length
   <= 2 over [n] interned terminal kinds is

     eps      : does the set contain the empty sequence
     singles  : n-bit plane, bit [a] for sequence [a]
     pairs    : n x n bit plane (row-major), bit [a, c] for [a; c]

   which is a canonical representation: two sets are equal exactly when
   their planes are. Every operation below mirrors its counterpart in
   Oracle.Lookahead set-theoretically — the string version's
   [take k (x @ y)] case analysis becomes plane algebra:

     concat_1 a b = { eps     = a.eps && b.eps
                    ; singles = a.singles | (a.eps ? b.singles) }
     concat_2 a b = { eps     = a.eps && b.eps
                    ; singles = (b.eps ? a.singles) | (a.eps ? b.singles)
                    ; pairs   = a.pairs | (a.eps ? b.pairs)
                              | row s := heads(b)  for each single s of a }

   where heads(b) marks the first token of every non-empty sequence of
   [b]. Two algorithmic liberties are taken relative to the string
   version, both sound because FIRST_k and FOLLOW_k are least fixpoints
   of monotone equations (the solution is unique, so any fair iteration
   strategy converges to the same sets):
   - FIRST iterates a dependency worklist instead of whole-grammar
     Jacobi passes;
   - FOLLOW and prediction memoize FIRST_k of alternatives and star
     closures, which are pure once FIRST has converged. *)

(* Bit planes use 63-bit words (OCaml's native int). *)
let word_bits = 63

(* A yield shorter than k is a complete derivation: the input there is
   exhausted, which the engine observes as the EOF sentinel. *)
let eof = Lexing_gen.Interner.eof_id

module Bset = struct
  type t = {
    mutable eps : bool;  (* mutated only by [grow], on privately owned sets *)
    singles : int array;  (* sw words over n bits *)
    mutable pairs : int array;
        (* n * sw words, row-major; [||] means all-zero — the pairs plane
           is only materialized once a set actually contains a pair, so
           the singletons and epsilon sets that dominate the fixpoint
           iteration stay a handful of words instead of n rows *)
  }

  let words n = (n + word_bits - 1) / word_bits
  let no_pairs p = Array.length p = 0
  let all_zero p = Array.for_all (fun w -> w = 0) p

  let empty ~k:_ ~n =
    { eps = false; singles = Array.make (words n) 0; pairs = [||] }

  let eps_set ~k ~n =
    let s = empty ~k ~n in
    s.eps <- true;
    s

  let singleton1 ~k ~n a =
    let s = empty ~k ~n in
    s.singles.(a / word_bits) <-
      s.singles.(a / word_bits) lor (1 lsl (a mod word_bits));
    s

  let copy s =
    { eps = s.eps; singles = Array.copy s.singles; pairs = Array.copy s.pairs }

  (* Shares planes: callers treat sets as immutable ([grow] only ever
     targets the FOLLOW table's privately owned accumulator entries). *)
  let with_eps s =
    if s.eps then s else { eps = true; singles = s.singles; pairs = s.pairs }

  let or_into dst src =
    let changed = ref false in
    for i = 0 to Array.length src - 1 do
      let w = dst.(i) lor src.(i) in
      if w <> dst.(i) then begin
        dst.(i) <- w;
        changed := true
      end
    done;
    !changed

  let union_pairs a b =
    if no_pairs a then Array.copy b
    else if no_pairs b then Array.copy a
    else begin
      let p = Array.copy a in
      ignore (or_into p b);
      p
    end

  let union a b =
    let singles = Array.copy a.singles in
    ignore (or_into singles b.singles);
    { eps = a.eps || b.eps; singles; pairs = union_pairs a.pairs b.pairs }

  (* Union [src] into a privately owned accumulator; true when it grew —
     the change detection driving the FOLLOW fixpoint. *)
  let grow dst src =
    let c1 = or_into dst.singles src.singles in
    let c2 =
      if no_pairs src.pairs then false
      else if no_pairs dst.pairs then
        if all_zero src.pairs then false
        else begin
          dst.pairs <- Array.copy src.pairs;
          true
        end
      else or_into dst.pairs src.pairs
    in
    let c3 = src.eps && not dst.eps in
    if c3 then dst.eps <- true;
    c1 || c2 || c3

  let equal a b =
    a.eps = b.eps
    && a.singles = b.singles
    && (if Array.length a.pairs = Array.length b.pairs then a.pairs = b.pairs
        else all_zero a.pairs && all_zero b.pairs)

  let inter a b =
    let singles = Array.map2 ( land ) a.singles b.singles in
    let pairs =
      if no_pairs a.pairs || no_pairs b.pairs then [||]
      else Array.map2 ( land ) a.pairs b.pairs
    in
    { eps = a.eps && b.eps; singles; pairs }

  let is_empty a = (not a.eps) && all_zero a.singles && all_zero a.pairs

  (* First token of every non-empty sequence: the singles plane plus a
     bit for every non-empty pairs row. *)
  let heads ~n a =
    let sw = words n in
    let h = Array.copy a.singles in
    if not (no_pairs a.pairs) then
      for r = 0 to n - 1 do
        let base = r * sw in
        let nonzero = ref false in
        for i = base to base + sw - 1 do
          if a.pairs.(i) <> 0 then nonzero := true
        done;
        if !nonzero then h.(r / word_bits) <- h.(r / word_bits) lor (1 lsl (r mod word_bits))
      done;
    h

  let concat ~k ~n a b =
    let sw = words n in
    if k = 1 then begin
      let singles = Array.copy a.singles in
      if a.eps then ignore (or_into singles b.singles);
      { eps = a.eps && b.eps; singles; pairs = [||] }
    end
    else begin
      let singles = if b.eps then Array.copy a.singles else Array.make sw 0 in
      if a.eps then ignore (or_into singles b.singles);
      let res = { eps = a.eps && b.eps; singles; pairs = [||] } in
      if not (no_pairs a.pairs) then res.pairs <- Array.copy a.pairs;
      if a.eps && not (no_pairs b.pairs) then
        if no_pairs res.pairs then res.pairs <- Array.copy b.pairs
        else ignore (or_into res.pairs b.pairs);
      (* every single s of a extends with the head of every non-empty
         continuation: row s |= heads b *)
      if Array.exists (fun w -> w <> 0) a.singles then begin
        let h = heads ~n b in
        if Array.exists (fun w -> w <> 0) h then begin
          if no_pairs res.pairs then res.pairs <- Array.make (n * sw) 0;
          let pairs = res.pairs in
          for s = 0 to n - 1 do
            if a.singles.(s / word_bits) land (1 lsl (s mod word_bits)) <> 0
            then begin
              let base = s * sw in
              for i = 0 to sw - 1 do
                pairs.(base + i) <- pairs.(base + i) lor h.(i)
              done
            end
          done
        end
      end;
      res
    end

  let star_closure ~k ~n s =
    let rec fix acc =
      let acc' = union acc (concat ~k ~n s acc) in
      if equal acc acc' then acc else fix acc'
    in
    fix (eps_set ~k ~n)

  let iter_singles ~n f a =
    for s = 0 to n - 1 do
      if a.singles.(s / word_bits) land (1 lsl (s mod word_bits)) <> 0 then f s
    done

  let iter_pairs ~n f a =
    let sw = words n in
    if Array.length a.pairs > 0 then
      for r = 0 to n - 1 do
        let base = r * sw in
        for i = 0 to sw - 1 do
          let w = a.pairs.(base + i) in
          if w <> 0 then
            for b = 0 to word_bits - 1 do
              if w land (1 lsl b) <> 0 then f r ((i * word_bits) + b)
            done
        done
      done
end

let rec term_first ~k ~n ~tid env = function
  | Grammar.Production.Sym (Grammar.Symbol.Terminal t) ->
    Bset.singleton1 ~k ~n (tid t)
  | Grammar.Production.Sym (Grammar.Symbol.Nonterminal nt) -> (
    match Hashtbl.find_opt env nt with
    | Some s -> s
    | None -> Bset.empty ~k ~n)
  | Grammar.Production.Opt ts -> Bset.with_eps (alt_first ~k ~n ~tid env ts)
  | Grammar.Production.Star ts ->
    Bset.star_closure ~k ~n (alt_first ~k ~n ~tid env ts)
  | Grammar.Production.Plus ts ->
    let f = alt_first ~k ~n ~tid env ts in
    Bset.concat ~k ~n f (Bset.star_closure ~k ~n f)
  | Grammar.Production.Group alts ->
    List.fold_left
      (fun acc a -> Bset.union acc (alt_first ~k ~n ~tid env a))
      (Bset.empty ~k ~n) alts

and alt_first ~k ~n ~tid env = function
  | [] -> Bset.eps_set ~k ~n
  | term :: rest ->
    Bset.concat ~k ~n (term_first ~k ~n ~tid env term)
      (alt_first ~k ~n ~tid env rest)

let rec term_nonterminals acc = function
  | Grammar.Production.Sym (Grammar.Symbol.Terminal _) -> acc
  | Grammar.Production.Sym (Grammar.Symbol.Nonterminal nt) -> nt :: acc
  | Grammar.Production.Opt ts
  | Grammar.Production.Star ts
  | Grammar.Production.Plus ts ->
    List.fold_left term_nonterminals acc ts
  | Grammar.Production.Group alts ->
    List.fold_left (List.fold_left term_nonterminals) acc alts

(* Worklist Gauss-Seidel: recompute a rule's FIRST when a non-terminal it
   references changed. Same least fixpoint as the string version's Jacobi
   sweeps (the equations are monotone over a finite lattice). *)
let compute_first ~k ~n ~tid (g : Grammar.Cfg.t) =
  let rules = Array.of_list g.rules in
  let nrules = Array.length rules in
  let rule_of_lhs = Hashtbl.create (2 * nrules) in
  Array.iteri
    (fun i (r : Grammar.Production.t) ->
      if not (Hashtbl.mem rule_of_lhs r.lhs) then
        Hashtbl.add rule_of_lhs r.lhs i)
    rules;
  let dependents = Array.make nrules [] in
  Array.iteri
    (fun i (r : Grammar.Production.t) ->
      let refs =
        List.sort_uniq String.compare
          (List.fold_left (List.fold_left term_nonterminals) [] r.alts)
      in
      List.iter
        (fun nt ->
          match Hashtbl.find_opt rule_of_lhs nt with
          | Some j -> dependents.(j) <- i :: dependents.(j)
          | None -> ())
        refs)
    rules;
  Array.iteri (fun i ds -> dependents.(i) <- List.rev ds) dependents;
  let env : (string, Bset.t) Hashtbl.t = Hashtbl.create (2 * nrules) in
  let queue = Queue.create () in
  let queued = Array.make nrules false in
  Array.iteri
    (fun i _ ->
      queued.(i) <- true;
      Queue.add i queue)
    rules;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    queued.(i) <- false;
    let r = rules.(i) in
    let cur =
      match Hashtbl.find_opt env r.lhs with
      | Some s -> s
      | None -> Bset.empty ~k ~n
    in
    let f =
      List.fold_left
        (fun s a -> Bset.union s (alt_first ~k ~n ~tid env a))
        cur r.alts
    in
    if not (Bset.equal cur f) then begin
      Hashtbl.replace env r.lhs f;
      List.iter
        (fun j ->
          if not queued.(j) then begin
            queued.(j) <- true;
            Queue.add j queue
          end)
        dependents.(i)
    end
  done;
  env

(* Memoized FIRST_k of alternatives / star closures over the *converged*
   FIRST map — pure, so caching is observationally invisible. Keys are the
   structural term lists (suffixes and branch phrases reuse them heavily in
   FOLLOW's fixpoint and in prediction). *)
let memoized_first ~k ~n ~tid env =
  let first_memo : (Grammar.Production.alt, Bset.t) Hashtbl.t =
    Hashtbl.create 512
  in
  let star_memo : (Grammar.Production.alt, Bset.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let first_of alt =
    match Hashtbl.find_opt first_memo alt with
    | Some s -> s
    | None ->
      let s = alt_first ~k ~n ~tid env alt in
      Hashtbl.replace first_memo alt s;
      s
  in
  let star_of ts =
    match Hashtbl.find_opt star_memo ts with
    | Some s -> s
    | None ->
      let s = Bset.star_closure ~k ~n (first_of ts) in
      Hashtbl.replace star_memo ts s;
      s
  in
  (first_of, star_of)

let compute_follow ~k ~n ~first_of ~star_of (g : Grammar.Cfg.t) =
  let follow : (string, Bset.t) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace follow g.start (Bset.singleton1 ~k ~n eof);
  let changed = ref true in
  let lookup nt =
    match Hashtbl.find_opt follow nt with
    | Some s -> s
    | None -> Bset.empty ~k ~n
  in
  let add nt set =
    match Hashtbl.find_opt follow nt with
    | None ->
      (* copy: [set] is shared (a memoized FIRST or a caller's tail) *)
      Hashtbl.replace follow nt (Bset.copy set);
      changed := true
    | Some cur -> if Bset.grow cur set then changed := true
  in
  let rec walk_seq lhs seq cont =
    match seq with
    | [] -> ()
    | term :: rest ->
      let tail = Bset.concat ~k ~n (first_of rest) cont in
      walk_term lhs term tail;
      walk_seq lhs rest cont
  and walk_term lhs term cont =
    match term with
    | Grammar.Production.Sym (Grammar.Symbol.Terminal _) -> ()
    | Grammar.Production.Sym (Grammar.Symbol.Nonterminal nt) -> add nt cont
    | Grammar.Production.Opt ts -> walk_seq lhs ts cont
    | Grammar.Production.Star ts | Grammar.Production.Plus ts ->
      (* Inside a repetition the phrase may be followed by further
         iterations of itself before the outer continuation. *)
      walk_seq lhs ts (Bset.concat ~k ~n (star_of ts) cont)
    | Grammar.Production.Group alts ->
      List.iter (fun a -> walk_seq lhs a cont) alts
  in
  while !changed do
    changed := false;
    List.iter
      (fun (r : Grammar.Production.t) ->
        (* snapshot: [add] mutates entries in place, and the walk must
           see one consistent FOLLOW(lhs) per alternative sweep *)
        let frozen = Bset.copy (lookup r.lhs) in
        List.iter (fun a -> walk_seq r.lhs a frozen) r.alts)
      g.rules
  done;
  follow

type tables = {
  k : int;
  n : int;
  first_of : Grammar.Production.alt -> Bset.t;
  follow : (string, Bset.t) Hashtbl.t;
}

let predict la ~lhs alt =
  let fol =
    match Hashtbl.find_opt la.follow lhs with
    | Some s -> s
    | None -> Bset.empty ~k:la.k ~n:la.n
  in
  Bset.concat ~k:la.k ~n:la.n (la.first_of alt) fol

let tables ~k ~n ~tid g =
  let env = compute_first ~k ~n ~tid g in
  let first_of, star_of = memoized_first ~k ~n ~tid env in
  let follow = compute_follow ~k ~n ~first_of ~star_of g in
  { k; n; first_of; follow }

type t = {
  n : int;
  la1 : tables;
  la2 : tables Lazy.t;
}

let make ~term_id ~n_terms (g : Grammar.Cfg.t) =
  let tables k = tables ~k ~n:n_terms ~tid:term_id g in
  { n = n_terms; la1 = tables 1; la2 = lazy (tables 2) }

exception Conflict

(* k = 1 prediction sets hold only the empty sequence (padded to EOF)
   and singletons. *)
let try1 t sets =
  let table = Array.make t.n (-1) in
  let claim id b =
    if table.(id) = -1 then table.(id) <- b
    else if table.(id) <> b then raise Conflict
  in
  try
    List.iteri
      (fun b (set : Bset.t) ->
        if set.Bset.eps then claim eof b;
        Bset.iter_singles ~n:t.n (fun s -> claim s b) set)
      sets;
    Some (Predict.Commit1 table)
  with Conflict -> None

(* The k = 2 tables: an exact pair map in which a pair claimed by two
   branches is marked [Predict.ambiguous], collapsed to a first-token
   table with per-token second rows. A first token all of whose pairs
   agree (on one branch, or on ambiguity) needs no second row. Without an
   ambiguous pair the decision is [Commit2]; otherwise it commits per
   lookahead ([Partial]). The collapse is order-independent (each first
   token is visited once; second-row entries have distinct keys), so hash
   iteration order cannot make the tables diverge. *)
let table2 t sets =
  let pairs : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let conflicted = ref false in
  let claim a c b =
    let key = (a * t.n) + c in
    match Hashtbl.find_opt pairs key with
    | None -> Hashtbl.replace pairs key b
    | Some b' ->
      if b' <> b then begin
        conflicted := true;
        Hashtbl.replace pairs key Predict.ambiguous
      end
  in
  List.iteri
    (fun b (set : Bset.t) ->
      if set.Bset.eps then claim eof eof b;
      Bset.iter_singles ~n:t.n (fun s -> claim s eof b) set;
      Bset.iter_pairs ~n:t.n (fun a c -> claim a c b) set)
    sets;
  let tbl1 = Array.make t.n (-1) in
  let by_first : (int, (int * int) list) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun key b ->
      let a = key / t.n and c = key mod t.n in
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_first a) in
      Hashtbl.replace by_first a ((c, b) :: prev))
    pairs;
  let second = Array.make t.n [||] in
  Hashtbl.iter
    (fun a entries ->
      let branches = List.sort_uniq compare (List.map snd entries) in
      match branches with
      | [ b ] -> tbl1.(a) <- b
      | _ ->
        tbl1.(a) <- -2;
        let row = Array.make t.n (-1) in
        List.iter (fun (c, b) -> row.(c) <- b) entries;
        second.(a) <- row)
    by_first;
  if !conflicted then Predict.Partial (tbl1, second)
  else Predict.Commit2 (tbl1, second)

let decide t ~lhs branches =
  match branches with
  | [] | [ _ ] -> Predict.Always
  | _ -> (
    let predicts la = List.map (fun alt -> predict la ~lhs alt) branches in
    match try1 t (predicts t.la1) with
    | Some d -> d
    | None -> table2 t (predicts (Lazy.force t.la2)))

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

(* The sequences of a set as terminal-name lists: [eps] is [[]], a single
   [a] is [[a]], a pair [(a, c)] is [[a; c]]. *)
let sequences ~n name (set : Bset.t) =
  let seqs = ref (if set.Bset.eps then [ [] ] else []) in
  Bset.iter_singles ~n (fun a -> seqs := [ name a ] :: !seqs) set;
  Bset.iter_pairs ~n (fun a c -> seqs := [ name a; name c ] :: !seqs) set;
  List.sort shortest_first !seqs

let conflicts ~k (g : Grammar.Cfg.t) =
  if k < 1 || k > 2 then invalid_arg "Ilookahead.conflicts: k must be 1 or 2";
  let interner = Lexing_gen.Interner.of_names (Grammar.Cfg.terminals g) in
  let n = Lexing_gen.Interner.size interner in
  let name = Lexing_gen.Interner.name interner in
  let tid t = Option.get (Lexing_gen.Interner.id_opt interner t) in
  let la = tables ~k ~n ~tid g in
  List.concat_map
    (fun (r : Grammar.Production.t) ->
      let predicted = Array.of_list (List.map (predict la ~lhs:r.lhs) r.alts) in
      let found = ref [] in
      Array.iteri
        (fun i pi ->
          for j = i + 1 to Array.length predicted - 1 do
            let overlap = Bset.inter pi predicted.(j) in
            if not (Bset.is_empty overlap) then
              found :=
                {
                  lhs = r.lhs;
                  alt_a = i;
                  alt_b = j;
                  witnesses = sequences ~n name overlap;
                }
                :: !found
          done)
        predicted;
      List.rev !found)
    g.rules

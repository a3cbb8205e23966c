(* The LL(k <= 2) analysis: Oracle.Lookahead's FIRST_k / FOLLOW_k
   fixpoints, prediction claim tables and conflicts, computed over
   bitset-represented sequence sets. A set of token sequences of length
   <= 2 over [n] interned terminal kinds is

     eps      : does the set contain the empty sequence
     singles  : n-bit plane, bit [a] for sequence [a]
     pairs    : row-sparse n x n bit plane — row [a] is the n-bit plane
                of the [c] with [a; c] in the set, only built for a first
                token [a] that begins a pair (the others share [||])
     firsts   : n-bit plane, bit [a] for every non-empty row

   which is a canonical representation: two sets are equal exactly when
   their planes are. Rows are immutable once stored, so unions,
   concatenations and copies share them instead of copying n x n bits:
   a set is the epsilon flag, two n-bit planes and an array of n row
   pointers, small enough for the minor heap. Every operation below
   mirrors its counterpart in
   Oracle.Lookahead set-theoretically — the string version's
   [take k (x @ y)] case analysis becomes plane algebra:

     concat_1 a b = { eps     = a.eps && b.eps
                    ; singles = a.singles | (a.eps ? b.singles) }
     concat_2 a b = { eps     = a.eps && b.eps
                    ; singles = (b.eps ? a.singles) | (a.eps ? b.singles)
                    ; pairs   = a.pairs | (a.eps ? b.pairs)
                              | row s |= heads(b)  for each single s of a }

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
  (* [eps], [singles], [firsts] and the row array of [pairs] are mutated
     only by [grow], on a FOLLOW accumulator: a private [copy]. Every
     other set is immutable once built and shares freely. *)
  type t = {
    mutable eps : bool;
    singles : int array;  (* sw words over n bits *)
    firsts : int array;  (* sw words: bit [a] iff row [a] is non-empty *)
    mutable pairs : int array array;
        (* [||] until a row is built; then n rows, row [a] the sw-word
           plane of the second tokens [c] of the pairs [(a, c)], an absent
           row being the shared [||]. A stored row is never all-zero and
           never written: [grow] replaces a row instead of OR-ing into
           it. *)
  }

  let words n = (n + word_bits - 1) / word_bits
  let absent p = Array.length p = 0
  let all_zero p = Array.for_all (fun w -> w = 0) p

  (* The index of the only bit set in [x]. *)
  let bit_index x =
    let rec go i x s =
      if s = 0 then i
      else if x land ((1 lsl s) - 1) = 0 then go (i + s) (x lsr s) (s / 2)
      else go i x (s / 2)
    in
    go 0 x 32

  (* [f a] for every bit [a] set in the plane [w], ascending. *)
  let iter_bits f w =
    for i = 0 to Array.length w - 1 do
      let x = ref w.(i) in
      while !x <> 0 do
        let low = !x land - !x in
        f ((i * word_bits) + bit_index low);
        x := !x lxor low
      done
    done

  let empty ~k:_ ~n =
    let sw = words n in
    {
      eps = false;
      singles = Array.make sw 0;
      firsts = Array.make sw 0;
      pairs = [||];
    }

  let eps_set ~k ~n =
    let s = empty ~k ~n in
    s.eps <- true;
    s

  let singleton1 ~k ~n a =
    let s = empty ~k ~n in
    s.singles.(a / word_bits) <-
      s.singles.(a / word_bits) lor (1 lsl (a mod word_bits));
    s

  (* Rows are immutable, so a copy shares them. *)
  let copy s =
    {
      eps = s.eps;
      singles = Array.copy s.singles;
      firsts = Array.copy s.firsts;
      pairs = Array.copy s.pairs;
    }

  let with_eps s = if s.eps then s else { s with eps = true }

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

  let subset a b =
    let rec go i = i < 0 || (a.(i) land lnot b.(i) = 0 && go (i - 1)) in
    go (Array.length a - 1)

  (* The union of two rows, sharing one of them when it already covers
     the other. *)
  let union_row a b =
    if a == b || absent b then a
    else if absent a then b
    else if subset b a then a
    else if subset a b then b
    else Array.map2 ( lor ) a b

  (* [p] with row [r] |= [row] for every [r] in [rows]: a fresh row array
     ([p] may be shared), created all-absent when [p] is [[||]]. *)
  let extend ~n p rows row_of =
    let p = if absent p then Array.make n [||] else Array.copy p in
    iter_bits (fun r -> p.(r) <- union_row p.(r) (row_of r)) rows;
    p

  let union_pairs ~n a b =
    if a.pairs == b.pairs || all_zero b.firsts then a.pairs
    else if all_zero a.firsts then b.pairs
    else extend ~n a.pairs b.firsts (Array.get b.pairs)

  let union ~n a b =
    let singles = Array.copy a.singles in
    ignore (or_into singles b.singles);
    let firsts = Array.copy a.firsts in
    ignore (or_into firsts b.firsts);
    { eps = a.eps || b.eps; singles; firsts; pairs = union_pairs ~n a b }

  (* Union [src] into a privately owned accumulator; true when it grew —
     the change detection driving the FOLLOW fixpoint. A changed row is
     replaced (by [src]'s row or a fresh union), never written into: the
     old row may be shared with other sets. *)
  let grow ~n dst src =
    let c1 = or_into dst.singles src.singles in
    let c2 = ref false in
    if not (all_zero src.firsts) then begin
      if absent dst.pairs then dst.pairs <- Array.make n [||];
      iter_bits
        (fun r ->
          let cur = dst.pairs.(r) in
          let row = union_row cur src.pairs.(r) in
          if row != cur then begin
            dst.pairs.(r) <- row;
            c2 := true
          end)
        src.firsts;
      ignore (or_into dst.firsts src.firsts)
    end;
    let c3 = src.eps && not dst.eps in
    if c3 then dst.eps <- true;
    c1 || !c2 || c3

  let equal a b =
    a.eps = b.eps && a.singles = b.singles && a.firsts = b.firsts
    && (a.pairs == b.pairs
       ||
       let same = ref true in
       iter_bits
         (fun r -> if a.pairs.(r) <> b.pairs.(r) then same := false)
         a.firsts;
       !same)

  let inter ~n a b =
    let singles = Array.map2 ( land ) a.singles b.singles in
    let both = Array.map2 ( land ) a.firsts b.firsts in
    let firsts = Array.make (Array.length both) 0 in
    let pairs = if all_zero both then [||] else Array.make n [||] in
    iter_bits
      (fun r ->
        let row = Array.map2 ( land ) a.pairs.(r) b.pairs.(r) in
        if not (all_zero row) then begin
          pairs.(r) <- row;
          firsts.(r / word_bits) <-
            firsts.(r / word_bits) lor (1 lsl (r mod word_bits))
        end)
      both;
    { eps = a.eps && b.eps; singles; firsts; pairs }

  let is_empty a = (not a.eps) && all_zero a.singles && all_zero a.firsts

  (* First token of every non-empty sequence. *)
  let heads a = Array.map2 ( lor ) a.singles a.firsts

  let concat ~k ~n a b =
    let sw = words n in
    if k = 1 then begin
      let singles = Array.copy a.singles in
      if a.eps then ignore (or_into singles b.singles);
      { eps = a.eps && b.eps; singles; firsts = Array.make sw 0; pairs = [||] }
    end
    else begin
      let singles = if b.eps then Array.copy a.singles else Array.make sw 0 in
      if a.eps then ignore (or_into singles b.singles);
      let firsts = Array.copy a.firsts in
      if a.eps then ignore (or_into firsts b.firsts);
      let pairs = if a.eps then union_pairs ~n a b else a.pairs in
      (* every single s of a extends with the head of every non-empty
         continuation: row s |= heads b, all such rows sharing the one
         [heads b] where they were absent *)
      let pairs =
        if all_zero a.singles then pairs
        else
          let h = heads b in
          if all_zero h then pairs
          else begin
            ignore (or_into firsts a.singles);
            extend ~n pairs a.singles (fun _ -> h)
          end
      in
      { eps = a.eps && b.eps; singles; firsts; pairs }
    end

  let star_closure ~k ~n s =
    let rec fix acc =
      let acc' = union ~n acc (concat ~k ~n s acc) in
      if equal acc acc' then acc else fix acc'
    in
    fix (eps_set ~k ~n)

  let iter_singles f a = iter_bits f a.singles

  let iter_pairs f a =
    iter_bits (fun r -> iter_bits (f r) a.pairs.(r)) a.firsts
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
      (fun acc a -> Bset.union ~n acc (alt_first ~k ~n ~tid env a))
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
  let callees =
    Array.mapi
      (fun i (r : Grammar.Production.t) ->
        let refs =
          List.sort_uniq String.compare
            (List.fold_left (List.fold_left term_nonterminals) [] r.alts)
        in
        List.filter_map
          (fun nt ->
            let j = Hashtbl.find_opt rule_of_lhs nt in
            Option.iter (fun j -> dependents.(j) <- i :: dependents.(j)) j;
            j)
          refs)
      rules
  in
  Array.iteri (fun i ds -> dependents.(i) <- List.rev ds) dependents;
  let env : (string, Bset.t) Hashtbl.t = Hashtbl.create (2 * nrules) in
  let queue = Queue.create () in
  let queued = Array.make nrules false in
  (* Seed the worklist callees first (depth-first postorder), so that a
     rule is first computed after the rules it references, and recomputed
     only around recursion. *)
  let rec visit i =
    if not queued.(i) then begin
      queued.(i) <- true;
      List.iter visit callees.(i);
      Queue.add i queue
    end
  in
  Array.iteri (fun i _ -> visit i) rules;
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
        (fun s a -> Bset.union ~n s (alt_first ~k ~n ~tid env a))
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
    | Some cur -> if Bset.grow ~n cur set then changed := true
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

let first1 t alt =
  let s = t.la1.first_of alt in
  let ids = ref [] in
  Bset.iter_singles (fun a -> ids := a :: !ids) s;
  (s.Bset.eps, List.rev !ids)

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
        Bset.iter_singles (fun s -> claim s b) set)
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
      Bset.iter_singles (fun s -> claim s eof b) set;
      Bset.iter_pairs (fun a c -> claim a c b) set)
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
let sequences name (set : Bset.t) =
  let seqs = ref (if set.Bset.eps then [ [] ] else []) in
  Bset.iter_singles (fun a -> seqs := [ name a ] :: !seqs) set;
  Bset.iter_pairs (fun a c -> seqs := [ name a; name c ] :: !seqs) set;
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
            let overlap = Bset.inter ~n pi predicted.(j) in
            if not (Bset.is_empty overlap) then
              found :=
                {
                  lhs = r.lhs;
                  alt_a = i;
                  alt_b = j;
                  witnesses = sequences name overlap;
                }
                :: !found
          done)
        predicted;
      List.rev !found)
    g.rules

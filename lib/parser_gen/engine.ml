module Interner = Lexing_gen.Interner

type gen_error = Engine_types.gen_error =
  | Grammar_problems of Grammar.Cfg.problem list
  | Left_recursion of string list

let pp_gen_error = Engine_types.pp_gen_error

type parse_error = Engine_types.parse_error = {
  pos : Lexing_gen.Token.position;
  found : string;
  expected : string list;
}

let pp_parse_error = Engine_types.pp_parse_error

(* FIRST sets as bitsets over dense terminal ids: membership is a shift and
   a mask instead of a balanced-tree descent over string comparisons. *)
type bitset = Engine_types.bitset

let bitset_make n_terms : bitset = Bytes.make ((n_terms + 7) lsr 3) '\000'

let bitset_add (b : bitset) id =
  let byte = id lsr 3 in
  Bytes.unsafe_set b byte
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b byte) lor (1 lsl (id land 7))))

let bitset_mem (b : bitset) id =
  id >= 0
  && Char.code (Bytes.unsafe_get b (id lsr 3)) land (1 lsl (id land 7)) <> 0

let bitset_union_into ~into:(dst : bitset) (src : bitset) =
  for byte = 0 to Bytes.length dst - 1 do
    Bytes.unsafe_set dst byte
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get dst byte)
         lor Char.code (Bytes.unsafe_get src byte)))
  done

(* Internal representation: the grammar compiled down to integers, with a
   prediction record attached to every choice point. Terminal occurrences
   are interner ids, non-terminal occurrences index the [rules] array.
   Every choice point additionally carries its {!Predict.decision}: the
   dense LL(1)/LL(2) dispatch table when the branch prediction sets are
   disjoint, a [Partial] table (committing per lookahead) when they
   overlap, [Fallback] without analysis. The types live
   in {!Engine_types} so {!Program} can lower the same structures to
   bytecode. *)
type pred = Engine_types.pred = {
  first : bitset;
  nullable : bool;
}

type iterm = Engine_types.iterm =
  | ITerm of int
  | INonterm of int
  | IOpt of iseq * pred * Predict.decision
  | IStar of iseq * pred * Predict.decision
  | IPlus of iseq * pred * Predict.decision
  | IGroup of (iseq * pred) array * Predict.decision

and iseq = Engine_types.iseq

type nt_class = {
  nt_name : string;
  nt_committed : bool;
  nt_k : int;
  nt_fallbacks : int;
}

type summary = {
  committed_points : int;
  k1_points : int;
  k2_points : int;
  ambiguous_points : int;
  partial_points : int;
  committed_nts : int;
  total_nts : int;
  classes : nt_class list;
}

type t = {
  grammar : Grammar.Cfg.t;
  interner : Interner.t;            (* terminal kinds, shared with the scanner *)
  nt_names : string array;          (* non-terminal id -> name (CST labels) *)
  nt_ids : (string, int) Hashtbl.t;
  start : string;
  rules : (iseq * pred) array array; (* non-terminal id -> alternatives *)
  alt_dispatch : Predict.decision array; (* nt id -> rule-level decision *)
  nt_fast : bool array;
      (* every choice point of this non-terminal's own rule is committed,
         or is its rule-level choice committing per lookahead ([Partial]),
         so its body compiles to bytecode — dropping into the memoized
         engine at references to non-[nt_fast] non-terminals, and at a
         reference whose rule-level [Partial] choice meets an ambiguous
         lookahead *)
  nt_committed : bool array;
      (* transitively committed: this non-terminal's whole subtree parses on
         committed dispatch, no memo, no backtracking (the static
         classification: a [Partial] point counts as ambiguous) *)
  nt_strict : bool array;
      (* transitively [nt_fast]: the subtree's only ambiguity is at
         [Partial] rule entries, so one strict dispatch run that meets no
         ambiguous lookahead is its complete derivation set *)
  summary : summary;
  program : Program.t option;
      (* the [nt_fast] region lowered to flat bytecode at generation time
         (so caching the engine caches the compiled program); [None] only
         when dispatch is off *)
}

let grammar t = t.grammar
let start_symbol t = t.start
let interner t = t.interner
let summary t = t.summary
let program t = t.program

let coverage s =
  let total = s.committed_points + s.ambiguous_points in
  if total = 0 then 1.0
  else float_of_int s.committed_points /. float_of_int total

let pp_summary ppf s =
  Fmt.pf ppf
    "%d/%d choice points committed (k=1: %d, k=2: %d), %.1f%% coverage; %d \
     partial (commit per lookahead); %d/%d non-terminals fully committed"
    s.committed_points
    (s.committed_points + s.ambiguous_points)
    s.k1_points s.k2_points
    (100. *. coverage s)
    s.partial_points s.committed_nts s.total_nts

(* Every terminal occurring anywhere in the grammar, in occurrence order. *)
let grammar_terminals (g : Grammar.Cfg.t) =
  let acc = ref [] in
  let rec term = function
    | Grammar.Production.Sym (Grammar.Symbol.Terminal n) -> acc := n :: !acc
    | Grammar.Production.Sym (Grammar.Symbol.Nonterminal _) -> ()
    | Grammar.Production.Opt ts
    | Grammar.Production.Star ts
    | Grammar.Production.Plus ts ->
      List.iter term ts
    | Grammar.Production.Group alts -> List.iter (List.iter term) alts
  in
  List.iter
    (fun (r : Grammar.Production.t) -> List.iter (List.iter term) r.alts)
    g.rules;
  List.rev !acc

let generate ?(dispatch = true) ?interner ?classify g =
  let all_problems = Grammar.Cfg.check g in
  let problems =
    (* Unreachable rules are tolerated in generated parsers (a fragment may
       define helpers only some alternatives use); undefined references and a
       missing start rule are fatal. *)
    List.filter
      (function
        | Grammar.Cfg.Unreachable_rule _ -> false
        | Grammar.Cfg.Undefined_nonterminal _ | Grammar.Cfg.Undefined_start ->
          true)
      all_problems
  in
  if problems <> [] then Error (Grammar_problems problems)
  else
    match Grammar.Analysis.left_recursive g with
    | _ :: _ as nts -> Error (Left_recursion nts)
    | [] ->
      (* Extending the scanner's interner preserves its ids, so tokens it
         stamps remain trusted; terminals the token set lacks (none in a
         coherent composition) are appended. *)
      let interner =
        match interner with
        | Some i -> Interner.extend i (grammar_terminals g)
        | None -> Interner.of_names (grammar_terminals g)
      in
      let n_terms = Interner.size interner in
      let term_id name =
        match Interner.id_opt interner name with
        | Some id -> id
        | None -> assert false (* interner covers grammar_terminals *)
      in
      let nt_names =
        Array.of_list
          (List.map (fun (r : Grammar.Production.t) -> r.lhs) g.rules)
      in
      let nt_ids = Hashtbl.create (2 * Array.length nt_names) in
      Array.iteri (fun id name -> Hashtbl.replace nt_ids name id) nt_names;
      (* The k = 1 tables give the pruning sets (FIRST₁ and nullability)
         of every sequence; the k = 2 tables are only built when a choice
         point needs them. *)
      let la = Ilookahead.make ~term_id ~n_terms g in
      let pred_of_seq seq =
        let nullable, ids = Ilookahead.first1 la seq in
        let first = bitset_make n_terms in
        List.iter (bitset_add first) ids;
        { first; nullable }
      in
      (* Choice-point classification, only when dispatch is on
         ([~dispatch:false] is exactly the previous backtracking-everywhere
         engine: every point [Fallback], and the k = 2 tables are never
         built).
         Unreachable rules are classified [Fallback] without analysis:
         their FOLLOW sets are empty, so prediction there is meaningless —
         and they are excluded from the summary for the same reason. *)
      let unreachable =
        List.filter_map
          (function Grammar.Cfg.Unreachable_rule nt -> Some nt | _ -> None)
          all_problems
      in
      let reachable lhs = not (List.mem lhs unreachable) in
      (* [?classify] substitutes the decision oracle (the test suite's
         string classifier). *)
      let decide =
        match classify with
        | Some oracle ->
          fun ~lhs branches ->
            oracle ~term_id:(Interner.id_opt interner) ~n_terms ~lhs branches
        | None -> Ilookahead.decide la
      in
      let k1_points = ref 0 and k2_points = ref 0 and ambiguous = ref 0 in
      let partial = ref 0 in
      let nt_k : (string, int) Hashtbl.t = Hashtbl.create 64 in
      let nt_fb : (string, int) Hashtbl.t = Hashtbl.create 64 in
      (* points that keep a rule out of the bytecode: an uncommitted
         point inside a rule body, or a rule-level choice that can never
         commit *)
      let nt_slow : (string, unit) Hashtbl.t = Hashtbl.create 64 in
      let bump tbl lhs f =
        Hashtbl.replace tbl lhs
          (f (Option.value ~default:0 (Hashtbl.find_opt tbl lhs)))
      in
      (* [entry]: the rule-level choice, met before the rule consumes a
         token — the only place a [Partial] point can hand its occurrence
         to the memoized engine without unwinding anything. *)
      let classify ~entry lhs branches =
        match branches with
        | [] | [ _ ] -> Predict.Always
        | _ ->
          if dispatch && reachable lhs then begin
            let d = decide ~lhs branches in
            (match d with
            | Predict.Always -> ()
            | Predict.Commit1 _ ->
              incr k1_points;
              bump nt_k lhs (max 1)
            | Predict.Commit2 _ ->
              incr k2_points;
              bump nt_k lhs (max 2)
            | Predict.Partial _ | Predict.Fallback ->
              incr ambiguous;
              (match d with Predict.Partial _ -> incr partial | _ -> ());
              bump nt_fb lhs (fun c -> c + 1);
              if not (entry && Predict.commits_somewhere d) then
                Hashtbl.replace nt_slow lhs ());
            d
          end
          else Predict.Fallback
      in
      (* [cont] is the rest of the enclosing alternative after the term
         being compiled — the branch phrases handed to [classify] must
         extend to the end of the alternative so that
         prediction for [lhs] (which appends FOLLOW(lhs)) covers the
         complete right context of the choice. *)
      let module P = Grammar.Production in
      let rec compile_term lhs cont = function
        | P.Sym (Grammar.Symbol.Terminal n) -> ITerm (term_id n)
        | P.Sym (Grammar.Symbol.Nonterminal n) ->
          INonterm (Hashtbl.find nt_ids n) (* defined: checked above *)
        | P.Opt ts ->
          IOpt
            ( compile_seq lhs cont ts,
              pred_of_seq ts,
              classify ~entry:false lhs [ ts @ cont; cont ] )
        | P.Star ts ->
          IStar
            ( compile_seq lhs (P.Star ts :: cont) ts,
              pred_of_seq ts,
              classify ~entry:false lhs [ ts @ (P.Star ts :: cont); cont ] )
        | P.Plus ts ->
          IPlus
            ( compile_seq lhs (P.Star ts :: cont) ts,
              pred_of_seq ts,
              classify ~entry:false lhs [ ts @ (P.Star ts :: cont); cont ] )
        | P.Group alts ->
          IGroup
            ( Array.of_list
                (List.map
                   (fun a -> (compile_seq lhs cont a, pred_of_seq a))
                   alts),
              classify ~entry:false lhs (List.map (fun a -> a @ cont) alts) )
      and compile_seq lhs cont ts =
        let rec go = function
          | [] -> []
          | term :: rest -> compile_term lhs (rest @ cont) term :: go rest
        in
        Array.of_list (go ts)
      in
      let rules =
        Array.of_list
          (List.map
             (fun (r : P.t) ->
               Array.of_list
                 (List.map
                    (fun a -> (compile_seq r.lhs [] a, pred_of_seq a))
                    r.alts))
             g.rules)
      in
      let alt_dispatch =
        Array.of_list
          (List.map (fun (r : P.t) -> classify ~entry:true r.lhs r.alts) g.rules)
      in
      (* A non-terminal is committed when every choice point of its own
         rule is committed *and* every rule it references (transitively) is
         too: greatest fixpoint, demoting on any uncommitted reference.
         [nt_strict] is the same fixpoint over [nt_fast]. Reachability is
         closed under reference, so neither ever points into the
         unreachable (Fallback) region. *)
      let own name tbl =
        dispatch && reachable name && not (Hashtbl.mem tbl name)
      in
      let nt_fast = Array.map (fun name -> own name nt_slow) nt_names in
      let refs =
        Array.of_list
          (List.map
             (fun (r : P.t) ->
               List.map (Hashtbl.find nt_ids) (P.mentioned_nonterminals r))
             g.rules)
      in
      let transitively ok =
        let changed = ref true in
        while !changed do
          changed := false;
          Array.iteri
            (fun id o ->
              if o && List.exists (fun r -> not (Array.unsafe_get ok r)) refs.(id)
              then begin
                ok.(id) <- false;
                changed := true
              end)
            ok
        done;
        ok
      in
      let nt_committed =
        transitively (Array.map (fun name -> own name nt_fb) nt_names)
      in
      let nt_strict = transitively (Array.copy nt_fast) in
      let classes =
        List.concat
          (List.mapi
             (fun id (r : P.t) ->
               if not (reachable r.lhs) then []
               else
                 [
                   {
                     nt_name = r.lhs;
                     nt_committed = nt_committed.(id);
                     nt_k =
                       Option.value ~default:0 (Hashtbl.find_opt nt_k r.lhs);
                     nt_fallbacks =
                       Option.value ~default:0 (Hashtbl.find_opt nt_fb r.lhs);
                   };
                 ])
             g.rules)
      in
      let summary =
        {
          committed_points = !k1_points + !k2_points;
          k1_points = !k1_points;
          k2_points = !k2_points;
          ambiguous_points = !ambiguous;
          partial_points = !partial;
          committed_nts =
            List.length
              (List.filter (fun (c : nt_class) -> c.nt_committed) classes);
          total_nts = List.length classes;
          classes;
        }
      in
      let program =
        if dispatch then
          (* defined: [Undefined_start] is fatal above *)
          Some
            (Program.compile ~nt_names ~nt_fast ~rules ~alt_dispatch
               ~start:(Hashtbl.find nt_ids g.start))
        else None
      in
      Ok
        {
          grammar = g;
          interner;
          nt_names;
          nt_ids;
          start = g.start;
          rules;
          alt_dispatch;
          nt_fast;
          nt_committed;
          nt_strict;
          summary;
          program;
        }

type derivs = Engine_types.derivs =
  | Nil
  | Cons of int * int * derivs Lazy.t

(* One run's memoized oracle over a fixed token-id stream, shared by the
   bytecode VM's fallback boundary and the pure error-reporting rerun.
   Each value owns a fresh (sparse, lazily created) memo and
   furthest-failure tracker, i.e. it is one logical run. *)
type run_machinery = {
  rm_results : int -> int -> derivs;
      (* [rm_results nid i]: the priority-ordered derivation stream (end
         position, row) of non-terminal [nid] at position [i] — the VM's FB
         oracle *)
  rm_top : int -> (int, parse_error) result;
      (* the whole statement from start non-terminal id [sid] on the
         memoized engine — its root row — with its furthest-failure report
         on rejection *)
  rm_fail : unit -> (int, parse_error) result;
      (* the furthest-failure report accumulated so far (used when the
         start symbol has no rule) *)
}

(* Token kinds arrive as dense ids ([tids], valid for this engine's
   interner); the tokens themselves stay behind the [tok] accessor, read
   only for an error position. A derivation's children are child codes
   ({!Rows.leaf} of a token position, or a row id), and a derivation that
   completes closes its row in the domain's {!Rows} arena, which the
   caller has started; a recognition run ([build = false]) closes none.

   The memoized backtracking engine (p_ functions) has two hooks active
   when [use_dispatch] is on. Every choice point (even inside non-terminals
   that are not fast) explores only the branch its table selects for the
   lookahead, unless the entry is ambiguous: branches outside the
   prediction set cannot take part in any successful parse, whatever the
   context, because FOLLOW is the union over all contexts. And the
   complete derivation set of an [nt_strict] non-terminal is the single
   derivation one strict run produces.

   A strict run is {!Vm.strict}: the bytecode VM entered at the rule's
   compiled body on its own per-domain arena, so it can run inside the
   [FB] of the statement's VM run. The domain's strict runner serves every
   statement; a run only sets its input and resets stack pointers.
   An [nt_strict] subtree references only [nt_fast] rules, so the only
   ambiguity it can meet is a rule-level [Partial] choice; that ends the
   run as ambiguous and the position is enumerated instead. No
   expectation tracking happens here: a rejecting VM run is re-derived
   on the pure memoized path, which reproduces the backtracking engine's
   error exactly. *)
let machinery t ~(tids : int array) ~n ~(tok : int -> Lexing_gen.Token.t)
    ~(kind_name : int -> string) ~build ~use_dispatch =
  let n_terms = Interner.size t.interner in
  let rows = Rows.domain () in
  let tid i = if i < n then Array.unsafe_get tids i else Interner.eof_id in
  let stride = n + 1 in
  (* The branch a decision selects at [i]: [>= 0], [-1] when no branch is
     viable, or [Predict.ambiguous] ([Fallback] is ambiguous everywhere). *)
  let select d i =
    match d with
    | Predict.Always -> 0
    | Predict.Fallback -> Predict.ambiguous
    | Predict.Commit1 table ->
      let k = tid i in
      if k < 0 then -1 else Array.unsafe_get table k
    | Predict.Commit2 (table, second) | Predict.Partial (table, second) -> (
      let k1 = tid i in
      if k1 < 0 then -1
      else
        match Array.unsafe_get table k1 with
        | -2 ->
          let k2 = tid (i + 1) in
          if k2 < 0 then -1
          else Array.unsafe_get (Array.unsafe_get second k1) k2
        | b -> b)
  in
  (* The memo is sparse: one table per run, keyed by
     [nt_id * (n_tokens + 1) + pos] and created on the first fallback, so a
     run pays for the cells it touches and nothing else — a fully committed
     parse allocates none, and no run allocates in proportion to
     rules × tokens. A cell holds the head of the derivation stream; its
     lazy tails are shared by every later consumer of the same cell. (A
     specialised int table measured the same as the generic one.) *)
  let memo = lazy (Hashtbl.create 64) in
    (* Furthest-failure tracking for error reporting: expected terminals are
       accumulated as a bitset and rendered back through the interner only
       when the parse actually fails. *)
    let best_pos = ref (-1) in
    let best_expected = bitset_make n_terms in
    let advance_to i =
      if i > !best_pos then begin
        best_pos := i;
        Bytes.fill best_expected 0 (Bytes.length best_expected) '\000';
        true
      end
      else i = !best_pos
    in
    let expect_one i id = if advance_to i then bitset_add best_expected id in
    let expect_set i set =
      if advance_to i then bitset_union_into ~into:best_expected set
    in
    let enter_nullable (pred : pred) i =
      pred.nullable || bitset_mem pred.first (tid i)
    in
    let enter_strict (pred : pred) i = bitset_mem pred.first (tid i) in
    (* Memoized results parsing. For each (non-terminal, position) the
       ordered derivations are a lazy stream computed at most once; since a
       continuation's success depends only on where a derivation ends,
       derivations are deduped by end position (first — highest-priority —
       tree wins). This keeps the full-backtracking semantics while avoiding
       the exponential re-parsing that naive backtracking exhibits on nested
       parenthesized constructs. Left recursion is rejected at generation
       time, so deriving a stream (or forcing one of its tails) never
       re-enters its own key. *)
    let rec p_seq seq si i acc (k : int -> int list -> int option) =
      if si = Array.length seq then k i acc
      else
        p_term (Array.unsafe_get seq si) i acc (fun j acc ->
            p_seq seq (si + 1) j acc k)
    and p_term term i acc k =
      match term with
      | ITerm id ->
        (* [lnot i] is [Rows.leaf i], spelled out on this per-token path *)
        if tid i = id && i < n then k (i + 1) (lnot i :: acc)
        else begin
          expect_one i id;
          None
        end
      | INonterm nid ->
        let rec try_results = function
          | Nil -> None
          | Cons (j, row, rest) -> (
            match k j (row :: acc) with
            | Some _ as r -> r
            | None -> try_results (Lazy.force rest))
        in
        try_results (nonterm_results nid i)
      | IOpt (s, pred, d) -> (
        (* Committed enter-vs-skip: the non-selected side cannot belong to
           any successful parse, so neither it nor a backtrack into it is
           tried. -1 (foreign token / no viable side) fails the point. *)
        match p_select d i with
        | 0 -> p_seq s 0 i acc k
        | 1 -> k i acc
        | -1 -> None
        | _ ->
          if enter_strict pred i then (
            match p_seq s 0 i acc k with
            | Some _ as r -> r
            | None -> k i acc)
          else k i acc)
      | IStar (s, pred, d) -> p_star s pred d i acc k
      | IPlus (s, pred, d) ->
        p_seq s 0 i acc (fun j acc -> p_star s pred d j acc k)
      | IGroup (alts, d) -> (
        match p_select d i with
        | b when b >= 0 -> p_seq (fst (Array.unsafe_get alts b)) 0 i acc k
        | -1 -> None
        | _ ->
          let len = Array.length alts in
          let rec go a =
            if a = len then None
            else
              let s, pred = Array.unsafe_get alts a in
              if enter_nullable pred i then (
                match p_seq s 0 i acc k with
                | Some _ as r -> r
                | None -> go (a + 1))
              else begin
                expect_set i pred.first;
                go (a + 1)
              end
          in
          go 0)
    and p_star s pred d i acc k =
      match p_select d i with
      | 0 ->
        (* Committed loop: each enter-vs-stop choice is decided by
           lookahead, so a failed iteration fails the loop — no
           backtracking into a shorter repetition. *)
        p_seq s 0 i acc (fun j acc2 ->
            if j > i then p_star s pred d j acc2 k else k j acc2)
      | 1 -> k i acc
      | -1 -> None
      | _ ->
        if enter_strict pred i then (
          match
            p_seq s 0 i acc (fun j acc2 ->
                (* Guard against zero-progress iterations of a nullable
                   body. *)
                if j > i then p_star s pred d j acc2 k else k j acc2)
          with
          | Some _ as r -> r
          | None -> k i acc)
        else k i acc
    (* The memoized engine consults a decision only when dispatching; an
       ambiguous entry (or no dispatch) keeps full backtracking with
       FIRST-set pruning. *)
    and p_select d i = if use_dispatch then select d i else Predict.ambiguous
    and nonterm_results nid i =
      if i <= n then begin
        let memo = Lazy.force memo in
        let key = (nid * stride) + i in
        match Hashtbl.find_opt memo key with
        | Some results -> results
        | None ->
          let results = compute_results nid i in
          Hashtbl.add memo key results;
          results
      end
      else compute_results nid i
    and compute_results nid i =
      if use_dispatch && Array.unsafe_get t.nt_strict nid then begin
        (* Fast subtree: one strict run. When every choice on the way had
           one viable branch, the derivation it computes is the only one
           that can survive into a successful parse, so the complete result
           set is that single derivation — or nothing. An ambiguous
           lookahead gives the attempt up, and this position is enumerated
           instead. *)
        let prog = Option.get t.program (* [nt_strict] is all false without one *) in
        let j = Vm.strict prog ~ids:tids ~n ~build nid i in
        if j >= 0 then
          Cons (j, (if build then Vm.strict_row () else 0), Engine_types.nil_tail)
        else if j = -1 then Nil
        else enumerate nid i
      end
      else enumerate nid i
    and enumerate nid i =
      let alts = Array.unsafe_get t.rules nid in
      (* Where the rule's own choice commits at this lookahead, only the
         selected alternative can yield a derivation that survives into
         any successful parse. *)
      match p_select (Array.unsafe_get t.alt_dispatch nid) i with
      | b when b >= 0 -> derive nid alts i b (b + 1) []
      | -1 -> Nil
      | _ -> derive nid alts i 0 (Array.length alts) []
    (* Alternatives [a .. stop - 1] of a rule at [i], lazily: alternative
       [a] is enumerated in full (its continuation refuses every end, so
       every end it can reach is seen), its ends not already produced by
       an earlier alternative ([seen]) are emitted in the order found —
       first tree per end wins, its row closed when it is found — and the
       next alternative is derived only when a consumer walks past them. A rejecting run walks every stream
       to [Nil], so it derives exactly what the eager enumeration did, and
       its furthest-failure report (the maximum position and the union of
       the expectations there) does not depend on the order. *)
    and derive nid alts i a stop seen =
      if a = stop then Nil
      else
        let s, (pred : pred) = Array.unsafe_get alts a in
        if enter_nullable pred i then begin
          let seen = ref seen and fresh = ref [] in
          let rec mem j = function
            | [] -> false
            | j' :: rest -> j = j' || mem j rest
          in
          ignore
            (p_seq s 0 i [] (fun j acc ->
                 if not (mem j !seen) then begin
                   seen := j :: !seen;
                   let row =
                     if build then Rows.close_list rows ~rule:nid ~pos:j acc
                     else 0
                   in
                   fresh := (j, row) :: !fresh
                 end;
                 (* Refuse so the enumeration continues. *)
                 None));
          match !fresh with
          | [] -> derive nid alts i (a + 1) stop !seen
          | (j, row) :: earlier ->
            let seen = !seen in
            List.fold_left
              (fun rest (j, row) -> Cons (j, row, Lazy.from_val rest))
              (Cons (j, row, lazy (derive nid alts i (a + 1) stop seen)))
              earlier
        end
        else begin
          expect_set i pred.first;
          derive nid alts i (a + 1) stop seen
        end
    in
    let fail_result () =
      let bp = max 0 !best_pos in
      let pos =
        if n = 0 then { Lexing_gen.Token.line = 1; column = 1; offset = 0 }
        else if bp >= n then begin
          (* Failure past the last token: report the position just past its
             span (scanner streams end in an EOF sentinel of width 0, whose
             own position this reproduces; the fix is visible only on
             hand-built streams without one. The reference engine keeps the
             historical clamp to the last token's start). *)
          let last = tok (n - 1) in
          let len = String.length last.Lexing_gen.Token.text in
          {
            Lexing_gen.Token.line = last.Lexing_gen.Token.pos.line;
            column = last.Lexing_gen.Token.pos.column + len;
            offset = last.Lexing_gen.Token.pos.offset + len;
          }
        end
        else (tok bp).Lexing_gen.Token.pos
      in
      let expected = ref [] in
      for id = n_terms - 1 downto 0 do
        if bitset_mem best_expected id then
          expected := Interner.name t.interner id :: !expected
      done;
      Error
        {
          Engine_types.pos;
          found = kind_name bp;
          expected = List.sort_uniq compare !expected;
        }
    in
  let memo_top sid =
    let result =
      p_term (INonterm sid) 0 [] (fun i acc ->
          if tid i = Interner.eof_id then
            match acc with [ tree ] -> Some tree | _ -> None
          else begin
            expect_one i Interner.eof_id;
            None
          end)
    in
    match result with Some tree -> Ok tree | None -> fail_result ()
  in
  { rm_results = nonterm_results; rm_top = memo_top; rm_fail = fail_result }

(* Dispatching runs that rejected and were re-derived on the pure path,
   counted per domain. *)
let rerun_count : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let pure_reruns () = !(Domain.DLS.get rerun_count)
let count_rerun () = incr (Domain.DLS.get rerun_count)

(* The shared parse driver: one bytecode VM run, its FB boundaries served
   by a dispatching oracle, and — only when that run rejects — the pure
   memoized rerun that derives the error. The result is the root row in
   the domain's {!Rows} arena, which a building caller ([build]) has
   started; recognition runs build no row. *)
let parse_ids ?start t ~(tids : int array) ~n
    ~(tok : int -> Lexing_gen.Token.t) ~(kind_name : int -> string) ~build =
  let start_name = Option.value ~default:t.start start in
  let pure () =
    let m = machinery t ~tids ~n ~tok ~kind_name ~build ~use_dispatch:false in
    match Hashtbl.find_opt t.nt_ids start_name with
    | Some sid -> m.rm_top sid
    | None ->
      (* No rule to enter: fail at the first token with an empty expected
         set, as the string engine did for an unknown start symbol. *)
      m.rm_fail ()
  in
  (* Prediction tables bake in FOLLOW sets computed for the grammar's own
     start symbol, so an overridden entry point (or an engine generated
     without dispatch, which has no program) parses on the pure memoized
     path. A rejecting VM run is re-derived without dispatch: the VM tracks
     no expectations, and re-running the (rare) rejected statement
     reproduces the backtracking engine's error exactly. *)
  match t.program with
  | Some prog when String.equal start_name t.start -> (
    (* built at the run's first [FB]: a statement that commits throughout
       needs no oracle *)
    let m =
      lazy (machinery t ~tids ~n ~tok ~kind_name ~build ~use_dispatch:true)
    in
    let root =
      Vm.exec prog ~ids:tids ~n ~build ~fallback:(fun nid i ->
          (Lazy.force m).rm_results nid i)
    in
    if root >= 0 then Ok root
    else begin
      count_rerun ();
      pure ()
    end)
  | _ -> pure ()

(* Token kinds resolved to engine ids once, at the boundary: tokens stamped
   by the shared scanner pass a physical-equality check; foreign or
   unstamped tokens are re-interned; unknown kinds become [-1], which
   matches no terminal and belongs to no bitset. *)
let stamped_ids t toks =
  Array.map
    (fun tok ->
      Interner.stamp_of t.interner ~kind:tok.Lexing_gen.Token.kind
        tok.Lexing_gen.Token.kind_id)
    toks

(* A building parse starts the domain's row arena over its tokens and
   returns its tree. *)
let build_rows t tokens parse =
  let rows = Rows.domain () in
  Rows.start rows ~names:t.nt_names tokens;
  Result.map (Rows.tree rows) (parse ~build:true)

let parse_tokens ?start t toks =
  let n = Array.length toks in
  Result.map Rows.to_cst
    (build_rows t (Rows.Tokens toks)
       (parse_ids ?start t ~tids:(stamped_ids t toks) ~n
          ~tok:(fun i -> toks.(i))
          ~kind_name:(fun i ->
            if i < n then toks.(i).Lexing_gen.Token.kind
            else Lexing_gen.Token.eof_kind)))

module Scanner = Lexing_gen.Scanner

(* SoA boundary: the scanner's kind ids are trusted directly when the
   scanner shares this engine's interner (what [Core.generate] arranges —
   [Interner.extend] preserves ids, and a coherent composition returns the
   scanner's interner itself). A foreign scanner's ids are re-stamped
   through their names, slow but correct. *)
let soa_ids t ~scanner (soa : Scanner.soa) ~n =
  if Scanner.interner scanner == t.interner then soa.Scanner.kind_ids
  else
    let si = Scanner.interner scanner in
    Array.init n (fun i ->
        let id = soa.Scanner.kind_ids.(i) in
        Interner.stamp_of t.interner ~kind:(Interner.name si id) id)

(* Only an error position reads a token record; kind names come from the
   interner by kind id. *)
let run_soa ?start t ~scanner soa ~build =
  (* [n] counts the EOF sentinel, like the token arrays [scan_tokens]
     produces, so all engines see identical streams. *)
  let n = Scanner.soa_count soa + 1 in
  parse_ids ?start t ~tids:(soa_ids t ~scanner soa ~n) ~n
    ~tok:(Scanner.token_of_soa scanner soa)
    ~kind_name:(Scanner.kind_name scanner soa) ~build

let parse_rows ?start t ~scanner soa =
  build_rows t (Rows.Soa (scanner, soa)) (run_soa ?start t ~scanner soa)

let parse_soa ?start t ~scanner soa =
  Result.map Rows.to_cst (parse_rows ?start t ~scanner soa)

let recognize_soa ?start t ~scanner soa =
  Result.map ignore (run_soa ?start t ~scanner soa ~build:false)

let parse ?start t token_list = parse_tokens ?start t (Array.of_list token_list)

let accepts ?start t tokens =
  match parse ?start t tokens with Ok _ -> true | Error _ -> false

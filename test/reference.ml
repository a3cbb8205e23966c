(* The string-keyed parsing engine the interned Engine replaced: terminals
   match by [String.equal], prediction sets are balanced-tree string sets,
   and the memo is a polymorphic-hashed [(string * int)] hashtable. It is
   retained verbatim as the executable specification of the parsing
   semantics, which the differential test suite checks Engine against;
   its prediction sets come from the string [Analysis]. Keep it simple,
   not fast. *)

module String_set = Analysis.String_set
module String_map = Analysis.String_map

(* Internal representation: the grammar with a prediction record attached to
   every choice point, so the parser does set lookups only. *)
type pred = {
  first : String_set.t;
  nullable : bool;
}

type iterm =
  | ITerm of string
  | INonterm of string
  | IOpt of iseq * pred
  | IStar of iseq * pred
  | IPlus of iseq * pred
  | IGroup of (iseq * pred) list

and iseq = iterm list

type t = {
  grammar : Grammar.Cfg.t;
  start : string;
  rules : (iseq * pred) array String_map.t;
}

let grammar t = t.grammar
let start_symbol t = t.start

let generate g =
  let problems =
    (* Unreachable rules are tolerated in generated parsers (a fragment may
       define helpers only some alternatives use); undefined references and a
       missing start rule are fatal. *)
    List.filter
      (function
        | Grammar.Cfg.Unreachable_rule _ -> false
        | Grammar.Cfg.Undefined_nonterminal _ | Grammar.Cfg.Undefined_start ->
          true)
      (Grammar.Cfg.check g)
  in
  if problems <> [] then Error (Parser_gen.Engine_types.Grammar_problems problems)
  else
    match Grammar.Analysis.left_recursive g with
    | _ :: _ as nts -> Error (Parser_gen.Engine_types.Left_recursion nts)
    | [] ->
      let an = Analysis.compute g in
      let pred_of_seq seq =
        {
          first = Analysis.seq_first an seq;
          nullable = Analysis.seq_nullable an seq;
        }
      in
      let rec compile_term = function
        | Grammar.Production.Sym (Grammar.Symbol.Terminal n) -> ITerm n
        | Grammar.Production.Sym (Grammar.Symbol.Nonterminal n) -> INonterm n
        | Grammar.Production.Opt ts -> IOpt (compile_seq ts, pred_of_seq ts)
        | Grammar.Production.Star ts -> IStar (compile_seq ts, pred_of_seq ts)
        | Grammar.Production.Plus ts -> IPlus (compile_seq ts, pred_of_seq ts)
        | Grammar.Production.Group alts ->
          IGroup (List.map (fun a -> (compile_seq a, pred_of_seq a)) alts)
      and compile_seq ts = List.map compile_term ts in
      let rules =
        List.fold_left
          (fun m (r : Grammar.Production.t) ->
            let alts =
              Array.of_list
                (List.map (fun a -> (compile_seq a, pred_of_seq a)) r.alts)
            in
            String_map.add r.lhs alts m)
          String_map.empty g.rules
      in
      Ok { grammar = g; start = g.start; rules }

let parse ?start t token_list =
  let toks = Array.of_list token_list in
  let n = Array.length toks in
  let kind i =
    if i < n then toks.(i).Lexing_gen.Token.kind else Lexing_gen.Token.eof_kind
  in
  (* Furthest-failure tracking for error reporting. *)
  let best_pos = ref (-1) in
  let best_expected = ref String_set.empty in
  let expect i what =
    if i > !best_pos then begin
      best_pos := i;
      best_expected := what
    end
    else if i = !best_pos then
      best_expected := String_set.union !best_expected what
  in
  let start = Option.value ~default:t.start start in
  let enter_nullable (pred : pred) i =
    pred.nullable || String_set.mem (kind i) pred.first
  in
  let enter_strict (pred : pred) i = String_set.mem (kind i) pred.first in
  (* Memoized complete-results parsing. For each (non-terminal, position) the
     full ordered set of derivations is computed once; since a continuation's
     success depends only on where a derivation ends, derivations are deduped
     by end position (first — highest-priority — tree wins). This keeps the
     full-backtracking semantics while avoiding the exponential re-parsing
     that naive backtracking exhibits on nested parenthesized constructs.
     Left recursion is rejected at generation time, so the memo computation
     never re-enters its own key. *)
  let memo : (string * int, (int * Parser_gen.Cst.t list) list) Hashtbl.t =
    Hashtbl.create 512
  in
  let rec p_seq seq i acc (k : int -> Parser_gen.Cst.t list -> Parser_gen.Cst.t option) =
    match seq with
    | [] -> k i acc
    | term :: rest -> p_term term i acc (fun j acc -> p_seq rest j acc k)
  and p_term term i acc k =
    match term with
    | ITerm name ->
      if String.equal (kind i) name then k (i + 1) (Parser_gen.Cst.Leaf toks.(i) :: acc)
      else begin
        expect i (String_set.singleton name);
        None
      end
    | INonterm name ->
      let rec try_results = function
        | [] -> None
        | (j, children) :: rest -> (
          match k j (Parser_gen.Cst.Node (name, children) :: acc) with
          | Some _ as r -> r
          | None -> try_results rest)
      in
      try_results (nonterm_results name i)
    | IOpt (s, pred) ->
      if enter_strict pred i then (
        match p_seq s i acc k with
        | Some _ as r -> r
        | None -> k i acc)
      else k i acc
    | IStar (s, pred) -> p_star s pred i acc k
    | IPlus (s, pred) -> p_seq s i acc (fun j acc -> p_star s pred j acc k)
    | IGroup alts ->
      let rec go = function
        | [] -> None
        | (s, pred) :: rest ->
          if enter_nullable pred i then (
            match p_seq s i acc k with
            | Some _ as r -> r
            | None -> go rest)
          else begin
            expect i pred.first;
            go rest
          end
      in
      go alts
  and p_star s pred i acc k =
    if enter_strict pred i then (
      match
        p_seq s i acc (fun j acc2 ->
            (* Guard against zero-progress iterations of a nullable body. *)
            if j > i then p_star s pred j acc2 k else k j acc2)
      with
      | Some _ as r -> r
      | None -> k i acc)
    else k i acc
  and nonterm_results name i =
    match Hashtbl.find_opt memo (name, i) with
    | Some results -> results
    | None ->
      let results = ref [] in
      (match String_map.find_opt name t.rules with
       | None -> ()
       | Some alts ->
         Array.iter
           (fun (s, pred) ->
             if enter_nullable pred i then
               ignore
                 (p_seq s i [] (fun j acc ->
                      if not (List.exists (fun (j', _) -> j' = j) !results) then
                        results := !results @ [ (j, List.rev acc) ];
                      (* Refuse so the enumeration continues. *)
                      None))
             else expect i pred.first)
           alts);
      Hashtbl.add memo (name, i) !results;
      !results
  in
  let result =
    p_term (INonterm start) 0 []
      (fun i acc ->
        if String.equal (kind i) Lexing_gen.Token.eof_kind then
          match acc with [ tree ] -> Some tree | _ -> None
        else begin
          expect i (String_set.singleton Lexing_gen.Token.eof_kind);
          None
        end)
  in
  match result with
  | Some tree -> Ok tree
  | None ->
    let i = max 0 (min !best_pos (n - 1)) in
    let pos =
      if n = 0 then { Lexing_gen.Token.line = 1; column = 1; offset = 0 }
      else toks.(i).Lexing_gen.Token.pos
    in
    Error
      {
        Parser_gen.Engine_types.pos;
        found = kind i;
        expected = String_set.elements !best_expected;
      }

let accepts ?start t tokens =
  match parse ?start t tokens with Ok _ -> true | Error _ -> false

module String_set = Set.Make (String)

(* Productivity: a non-terminal is productive when some alternative consists
   only of productive terms. Opt/Star are productive by taking zero
   iterations; Plus needs one productive iteration; a reference to an
   undefined non-terminal is never productive. *)
let productive_set (g : Grammar.Cfg.t) =
  let rec term_prod prod = function
    | Grammar.Production.Sym (Grammar.Symbol.Terminal _) -> true
    | Grammar.Production.Sym (Grammar.Symbol.Nonterminal n) ->
      String_set.mem n prod
    | Grammar.Production.Opt _ | Grammar.Production.Star _ -> true
    | Grammar.Production.Plus ts -> List.for_all (term_prod prod) ts
    | Grammar.Production.Group alts ->
      List.exists (fun a -> List.for_all (term_prod prod) a) alts
  in
  let step prod =
    List.fold_left
      (fun acc (r : Grammar.Production.t) ->
        if String_set.mem r.lhs acc then acc
        else if
          List.exists (fun a -> List.for_all (term_prod acc) a) r.alts
        then String_set.add r.lhs acc
        else acc)
      prod g.rules
  in
  let rec fix s =
    let s' = step s in
    if String_set.equal s s' then s else fix s'
  in
  fix String_set.empty

let unproductive (g : Grammar.Cfg.t) =
  let prod = productive_set g in
  List.filter_map
    (fun (r : Grammar.Production.t) ->
      if String_set.mem r.lhs prod then None else Some r.lhs)
    g.rules

let duplicate_alternatives (g : Grammar.Cfg.t) =
  List.concat_map
    (fun (r : Grammar.Production.t) ->
      let rec dups seen = function
        | [] -> []
        | alt :: rest ->
          if List.exists (Grammar.Production.alt_equal alt) seen then
            (r.lhs, alt) :: dups seen rest
          else dups (alt :: seen) rest
      in
      dups [] r.alts)
    g.rules

let alt_witness alt =
  List.map Grammar.Symbol.name (Grammar.Production.flatten alt)

let structure_diagnostics g =
  let reachable, undefined =
    List.fold_left
      (fun (reach, undef) problem ->
        match problem with
        | Grammar.Cfg.Unreachable_rule nt -> (String_set.remove nt reach, undef)
        | Grammar.Cfg.Undefined_nonterminal { nonterminal; referenced_from } ->
          (reach, (nonterminal, referenced_from) :: undef)
        | Grammar.Cfg.Undefined_start -> (reach, undef))
      (String_set.of_list (Grammar.Cfg.defined g), [])
      (Grammar.Cfg.check g)
  in
  let undefined_diags =
    List.rev_map
      (fun (nt, from) ->
        Diagnostic.make ~code:"grammar/undefined-nt" ~severity:Diagnostic.Error
          ~subject:nt
          ~witness:[ from; nt ]
          (Printf.sprintf
             "non-terminal <%s> is referenced from <%s> but no rule defines \
              it"
             nt from))
      undefined
  in
  let unreachable_diags =
    List.filter_map
      (function
        | Grammar.Cfg.Unreachable_rule nt ->
          Some
            (Diagnostic.make ~code:"grammar/unreachable"
               ~severity:Diagnostic.Warning ~subject:nt
               ~witness:[ g.Grammar.Cfg.start ]
               (Printf.sprintf
                  "rule <%s> is not reachable from the start symbol <%s>" nt
                  g.Grammar.Cfg.start))
        | Grammar.Cfg.Undefined_nonterminal _ | Grammar.Cfg.Undefined_start ->
          None)
      (Grammar.Cfg.check g)
  in
  let start_diags =
    if Grammar.Cfg.find g g.Grammar.Cfg.start = None then
      [
        Diagnostic.make ~code:"grammar/undefined-start"
          ~severity:Diagnostic.Error ~subject:g.Grammar.Cfg.start
          ~witness:[ g.Grammar.Cfg.start ]
          "the start symbol has no defining rule";
      ]
    else []
  in
  let unproductive_diags =
    List.map
      (fun nt ->
        let severity =
          if String_set.mem nt reachable then Diagnostic.Error
          else Diagnostic.Warning
        in
        Diagnostic.make ~code:"grammar/unproductive" ~severity ~subject:nt
          ~witness:[ nt ]
          (Printf.sprintf
             "rule <%s> derives no terminal string; every parse through it \
              fails"
             nt))
      (unproductive g)
  in
  let duplicate_diags =
    List.map
      (fun (lhs, alt) ->
        Diagnostic.make ~code:"grammar/duplicate-alt"
          ~severity:Diagnostic.Warning ~subject:lhs ~witness:(alt_witness alt)
          (Printf.sprintf
             "rule <%s> lists a structurally identical alternative twice; \
              the later copy can never match"
             lhs))
      (duplicate_alternatives g)
  in
  start_diags @ undefined_diags @ unproductive_diags @ unreachable_diags
  @ duplicate_diags

module Ilookahead = Parser_gen.Ilookahead

let witness_text w = String.concat " " w

let conflict_diagnostics ~k g =
  let ll1 = Ilookahead.conflicts ~k:1 g in
  if k <= 1 then
    List.map
      (fun (c : Ilookahead.conflict) ->
        let w = List.hd c.witnesses in
        Diagnostic.make ~code:"grammar/ll1-conflict"
          ~severity:Diagnostic.Warning ~subject:c.lhs ~witness:w
          (Printf.sprintf
             "alternatives %d and %d of <%s> are both predicted by lookahead \
              '%s'"
             c.alt_a c.alt_b c.lhs (witness_text w)))
      ll1
  else
    let ll2 = Ilookahead.conflicts ~k:2 g in
    let persists (c : Ilookahead.conflict) =
      List.find_opt
        (fun (c2 : Ilookahead.conflict) ->
          String.equal c2.lhs c.lhs && c2.alt_a = c.alt_a && c2.alt_b = c.alt_b)
        ll2
    in
    List.map
      (fun (c : Ilookahead.conflict) ->
        match persists c with
        | Some c2 ->
          let w = List.hd c2.witnesses in
          Diagnostic.make ~code:"grammar/ll2-conflict"
            ~severity:Diagnostic.Warning ~subject:c.lhs ~witness:w
            (Printf.sprintf
               "alternatives %d and %d of <%s> stay ambiguous under 2-token \
                lookahead '%s'; the generated parser backtracks only on ambiguous \
                lookaheads like this one and commits on the rest"
               c.alt_a c.alt_b c.lhs (witness_text w))
        | None ->
          let w = List.hd c.witnesses in
          Diagnostic.make ~code:"grammar/ll1-conflict"
            ~severity:Diagnostic.Info ~subject:c.lhs ~witness:w
            (Printf.sprintf
               "alternatives %d and %d of <%s> overlap on lookahead '%s' but \
                are resolved by the second token"
               c.alt_a c.alt_b c.lhs (witness_text w)))
      ll1

let check ?(k = 2) g = structure_diagnostics g @ conflict_diagnostics ~k g

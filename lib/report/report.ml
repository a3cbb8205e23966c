type t = {
  label : string;
  feature_count : int;
  rule_count : int;
  alternative_count : int;
  symbol_count : int;
  token_count : int;
  keyword_count : int;
  punct_count : int;
  statement_classes : string list;
  ll1_conflicts : Parser_gen.Ilookahead.conflict list;
  unreachable_rules : string list;
  contributions : (string * int * int) list;
  grammar : Grammar.Cfg.t;
}

let statement_classes (g : Grammar.Cfg.t) =
  match Grammar.Cfg.find g "sql_statement" with
  | None -> []
  | Some rule ->
    List.filter_map
      (fun alt ->
        match alt with
        | [ Grammar.Production.Sym (Grammar.Symbol.Nonterminal nt) ] -> Some nt
        | _ -> None)
      rule.Grammar.Production.alts

let build (g : Core.generated) =
  let scanner = Lexing_gen.Scanner.create g.Core.tokens in
  let grammar = g.Core.grammar in
  {
    label = g.Core.label;
    feature_count = Feature.Config.cardinal g.Core.config;
    rule_count = Grammar.Cfg.rule_count grammar;
    alternative_count = Grammar.Cfg.alternative_count grammar;
    symbol_count = Grammar.Cfg.symbol_count grammar;
    token_count = List.length g.Core.tokens;
    keyword_count = Lexing_gen.Scanner.keyword_count scanner;
    punct_count = Lexing_gen.Scanner.punct_count scanner;
    statement_classes = statement_classes grammar;
    grammar;
    ll1_conflicts = Parser_gen.Ilookahead.conflicts ~k:1 grammar;
    unreachable_rules =
      List.filter_map
        (function
          | Grammar.Cfg.Unreachable_rule nt -> Some nt
          | Grammar.Cfg.Undefined_nonterminal _ | Grammar.Cfg.Undefined_start ->
            None)
        (Grammar.Cfg.check grammar);
    contributions =
      List.filter_map
        (fun feature ->
          match Compose.Fragment.find Sql.Model.registry feature with
          | None -> None
          | Some frag ->
            if Compose.Fragment.is_empty frag then None
            else
              Some
                ( feature,
                  List.length frag.Compose.Fragment.rules,
                  List.length frag.Compose.Fragment.tokens ))
        g.Core.sequence;
  }

(* One conflict: rule, alternative indices and the terminals predicting
   both (the k = 1 witnesses), then the body of each alternative so the
   reader sees which productions compete for them. *)
let pp_conflict (g : Grammar.Cfg.t) ppf (c : Parser_gen.Ilookahead.conflict) =
  Fmt.pf ppf "<%s>: alternatives %d and %d overlap on {%a}" c.lhs c.alt_a
    c.alt_b
    Fmt.(list ~sep:comma string)
    (List.concat c.witnesses);
  match Grammar.Cfg.find g c.lhs with
  | None -> ()
  | Some r ->
    let side i =
      match List.nth_opt r.Grammar.Production.alts i with
      | None -> ()
      | Some [] -> Fmt.pf ppf "@,      #%d: (empty)" i
      | Some alt ->
        Fmt.pf ppf "@,      #%d: @[<h>%a@]" i Grammar.Production.pp_alt alt
    in
    Fmt.pf ppf "@[<v>";
    side c.alt_a;
    side c.alt_b;
    Fmt.pf ppf "@]"

let pp ppf r =
  Fmt.pf ppf "== grammar report: %s ==@." r.label;
  Fmt.pf ppf "@.-- size --@.";
  Fmt.pf ppf "features     %d@." r.feature_count;
  Fmt.pf ppf "rules        %d@." r.rule_count;
  Fmt.pf ppf "alternatives %d@." r.alternative_count;
  Fmt.pf ppf "symbols      %d@." r.symbol_count;
  Fmt.pf ppf "tokens       %d (%d keywords, %d punctuation)@." r.token_count
    r.keyword_count r.punct_count;
  Fmt.pf ppf "@.-- statement classes --@.";
  (match r.statement_classes with
   | [] -> Fmt.pf ppf "(none)@."
   | cs -> List.iter (fun c -> Fmt.pf ppf "%s@." c) cs);
  Fmt.pf ppf "@.-- determinism --@.";
  Fmt.pf ppf "LL(1) conflicts: %d (resolved by backtracking at parse time)@."
    (List.length r.ll1_conflicts);
  List.iter
    (fun c -> Fmt.pf ppf "  %a@." (pp_conflict r.grammar) c)
    r.ll1_conflicts;
  (match r.unreachable_rules with
   | [] -> ()
   | nts ->
     Fmt.pf ppf "unreachable helper rules: %a@."
       Fmt.(list ~sep:comma string)
       nts);
  Fmt.pf ppf "@.-- feature contributions (composition order) --@.";
  List.iter
    (fun (feature, rules, tokens) ->
      Fmt.pf ppf "%-32s %2d rule(s) %2d token(s)@." feature rules tokens)
    r.contributions

let to_string g = Fmt.str "%a" pp (build g)

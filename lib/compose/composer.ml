type output = {
  grammar : Grammar.Cfg.t;
  tokens : Lexing_gen.Spec.set;
  sequence : string list;
}

type error =
  | Invalid_configuration of Feature.Config.violation list
  | Token_conflict of { feature : string; conflict : Lexing_gen.Spec.conflict }
  | Incoherent_grammar of {
      problems : Grammar.Cfg.problem list;
      hints : (string * string) list;
    }

let pp_error ppf = function
  | Invalid_configuration vs ->
    Fmt.pf ppf "@[<v>invalid configuration:@ %a@]"
      Fmt.(list ~sep:cut Feature.Config.pp_violation)
      vs
  | Token_conflict { feature; conflict } ->
    Fmt.pf ppf "token conflict while composing feature %S: %a" feature
      Lexing_gen.Spec.pp_conflict conflict
  | Incoherent_grammar { problems; hints } ->
    Fmt.pf ppf "@[<v>composed grammar is incoherent:@ %a@ %a@]"
      Fmt.(list ~sep:cut Grammar.Cfg.pp_problem)
      problems
      Fmt.(
        list ~sep:cut (fun ppf (nt, feat) ->
            Fmt.pf ppf "hint: feature %S defines <%s>" feat nt))
      hints

(* Diagram pre-order restricted to the configuration: parents (bases)
   compose before children (extensions), siblings in diagram order. This is
   what keeps merged optional clauses in syntactic order — WHERE before
   GROUP BY under Table Expression, for instance. *)
let sequence (model : Feature.Model.t) config =
  List.filter
    (fun name -> Feature.Config.mem name config)
    (Feature.Tree.names model.concept)

type trace_event = {
  feature : string;
  lhs : string;
  outcome : Rules.outcome option;
}

let trace (model : Feature.Model.t) registry config =
  let events = ref [] in
  let rules = ref [] in
  List.iter
    (fun feature_name ->
      match Fragment.find registry feature_name with
      | None -> ()
      | Some frag ->
        List.iter
          (fun (fragment_rule : Grammar.Production.t) ->
            let existing =
              List.find_opt
                (fun (r : Grammar.Production.t) ->
                  String.equal r.lhs fragment_rule.lhs)
                !rules
            in
            (match existing with
             | None ->
               events :=
                 { feature = feature_name; lhs = fragment_rule.lhs; outcome = None }
                 :: !events
             | Some old ->
               List.iter
                 (fun alt ->
                   let _, outcome = Rules.compose_alt old.alts alt in
                   events :=
                     {
                       feature = feature_name;
                       lhs = fragment_rule.lhs;
                       outcome = Some outcome;
                     }
                     :: !events)
                 fragment_rule.alts);
            rules := Rules.compose_rules !rules [ fragment_rule ])
          frag.Fragment.rules)
    (sequence model config);
  List.rev !events

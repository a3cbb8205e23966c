type event = {
  ev_feature : int;  (* index into [names], diagram pre-order *)
  ev_name : string;
  ev_rules : Grammar.Production.t list;
  ev_tokens : Lexing_gen.Spec.set;
}

type t = {
  model : Feature.Model.t;
  registry : Compose.Fragment.registry;
  start : string;
  names : string array;  (* diagram pre-order; index = feature id *)
  index : (string, int) Hashtbl.t;
  events : event array;
  core : bool array;  (* mandatory/requires closure of the concept *)
  rule_pcs : (string, Pc.t) Hashtbl.t;
  token_pcs : (string, Pc.t) Hashtbl.t;
  family_grammar : Grammar.Cfg.t;
  family_tokens : Lexing_gen.Spec.set;
  size_ints : int;
  diags : Lint.Diagnostic.t list Lazy.t;
  lock : Mutex.t;  (* guards [diags] forcing and the counters below *)
  mutable instantiations : int;
  mutable mask_ms : float;
  mutable specialize_ms : float;
}

let rec term_size = function
  | Grammar.Production.Sym _ -> 1
  | Grammar.Production.Opt ts
  | Grammar.Production.Star ts
  | Grammar.Production.Plus ts ->
    1 + alt_size ts
  | Grammar.Production.Group alts ->
    1 + List.fold_left (fun a al -> a + alt_size al) 0 alts

and alt_size ts = List.fold_left (fun a tm -> a + term_size tm) 0 ts

let production_size (r : Grammar.Production.t) =
  List.fold_left (fun a al -> 1 + a + alt_size al) 0 r.alts

(* The family token table keeps the first definition of each name. A
   cross-feature definition conflict would surface here only for feature
   pairs no valid product may combine ([excludes]); per-product conflicts
   are still reported exactly, by the replay in [instantiate]. *)
let merge_first_def set additions =
  List.fold_left
    (fun acc (name, def) ->
      if List.mem_assoc name acc then acc else acc @ [ (name, def) ])
    set additions

let build ~start (model : Feature.Model.t) registry =
  let names = Array.of_list (Feature.Tree.names model.concept) in
  let index = Hashtbl.create (2 * Array.length names) in
  Array.iteri (fun i name -> Hashtbl.replace index name i) names;
  let events =
    Array.of_list
      (List.filter_map
         (fun (i, name) ->
           match Compose.Fragment.find registry name with
           | None -> None
           | Some frag ->
             Some
               {
                 ev_feature = i;
                 ev_name = name;
                 ev_rules = frag.Compose.Fragment.rules;
                 ev_tokens = frag.Compose.Fragment.tokens;
               })
         (List.mapi (fun i n -> (i, n)) (Array.to_list names)))
  in
  let core = Array.make (Array.length names) false in
  if Array.length names > 0 then
    Feature.Config.String_set.iter
      (fun name ->
        match Hashtbl.find_opt index name with
        | Some i -> core.(i) <- true
        | None -> ())
      (Feature.Config.close model (Feature.Config.of_names [ names.(0) ]));
  let rule_pcs = Hashtbl.create 64 in
  let token_pcs = Hashtbl.create 64 in
  let note tbl key pc =
    match Hashtbl.find_opt tbl key with
    | None -> Hashtbl.replace tbl key pc
    | Some prev -> Hashtbl.replace tbl key (Pc.union prev pc)
  in
  let family_rules, family_tokens =
    Array.fold_left
      (fun (rules, tokens) ev ->
        let pc = Pc.atom ev.ev_feature in
        List.iter
          (fun (r : Grammar.Production.t) -> note rule_pcs r.lhs pc)
          ev.ev_rules;
        List.iter (fun (name, _) -> note token_pcs name pc) ev.ev_tokens;
        ( Compose.Rules.compose_rules rules ev.ev_rules,
          merge_first_def tokens ev.ev_tokens ))
      ([], []) events
  in
  let family_grammar = Grammar.Cfg.make ~start family_rules in
  let pc_atoms tbl =
    Hashtbl.fold (fun _ pc acc -> acc + Pc.size pc) tbl 0
  in
  let size_ints =
    Array.fold_left
      (fun acc ev ->
        acc
        + List.fold_left (fun a r -> a + production_size r) 0 ev.ev_rules
        + List.length ev.ev_tokens)
      0 events
    + pc_atoms rule_pcs + pc_atoms token_pcs
  in
  let diags =
    lazy
      (Lint.run ~model
         ~config:(Feature.Config.full model)
         ~fragments:
           (List.map
              (fun ev -> (ev.ev_name, ev.ev_rules))
              (Array.to_list events))
         ~tokens:family_tokens family_grammar)
  in
  {
    model;
    registry;
    start;
    names;
    index;
    events;
    core;
    rule_pcs;
    token_pcs;
    family_grammar;
    family_tokens;
    size_ints;
    diags;
    lock = Mutex.create ();
    instantiations = 0;
    mask_ms = 0.;
    specialize_ms = 0.;
  }

exception Conflict of Compose.Composer.error

(* The product line's one composer: validation first, then the fold of
   the composition calculus over the pc-filtered event sequence, then the
   coherence check with defining-feature hints. The fold is a replay, not
   a mask of the family grammar — see the .mli headnote for why masking is
   unsound. *)
let instantiate t config =
  match Feature.Config.validate t.model config with
  | _ :: _ as violations ->
    Error (Compose.Composer.Invalid_configuration violations)
  | [] -> (
    let t0 = Unix.gettimeofday () in
    let selected = Array.make (Array.length t.names) false in
    Feature.Config.String_set.iter
      (fun name ->
        match Hashtbl.find_opt t.index name with
        | Some i -> selected.(i) <- true
        | None -> ())
      config;
    try
      let rules, tokens =
        Array.fold_left
          (fun ((rules, tokens) as acc) ev ->
            if not selected.(ev.ev_feature) then acc
            else
              let rules = Compose.Rules.compose_rules rules ev.ev_rules in
              let tokens =
                match Lexing_gen.Spec.merge tokens ev.ev_tokens with
                | Ok merged -> merged
                | Error conflict ->
                  raise
                    (Conflict
                       (Compose.Composer.Token_conflict
                          { feature = ev.ev_name; conflict }))
              in
              (rules, tokens))
          ([], []) t.events
      in
      let grammar = Grammar.Cfg.make ~start:t.start rules in
      let fatal =
        List.filter
          (function
            | Grammar.Cfg.Unreachable_rule _ -> false
            | Grammar.Cfg.Undefined_nonterminal _ | Grammar.Cfg.Undefined_start
              -> true)
          (Grammar.Cfg.check grammar)
      in
      if fatal <> [] then
        let hints =
          List.filter_map
            (function
              | Grammar.Cfg.Undefined_nonterminal { nonterminal; _ } ->
                Option.map
                  (fun feat -> (nonterminal, feat))
                  (Compose.Fragment.defining_feature t.registry nonterminal)
              | Grammar.Cfg.Unreachable_rule _ | Grammar.Cfg.Undefined_start ->
                None)
            fatal
        in
        Error (Compose.Composer.Incoherent_grammar { problems = fatal; hints })
      else begin
        let ms = (Unix.gettimeofday () -. t0) *. 1000. in
        Mutex.protect t.lock (fun () ->
            t.instantiations <- t.instantiations + 1;
            t.mask_ms <- t.mask_ms +. ms);
        Ok
          {
            Compose.Composer.grammar;
            tokens;
            sequence = Compose.Composer.sequence t.model config;
          }
      end
    with Conflict e -> Error e)

let time_specialize t f =
  let t0 = Unix.gettimeofday () in
  let finally () =
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    Mutex.protect t.lock (fun () -> t.specialize_ms <- t.specialize_ms +. ms)
  in
  Fun.protect ~finally f

let diagnostics t = Mutex.protect t.lock (fun () -> Lazy.force t.diags)

let diagnostics_for t config =
  let selected i =
    i >= 0
    && i < Array.length t.names
    && Feature.Config.mem t.names.(i) config
  in
  let subject_pc subject =
    match Hashtbl.find_opt t.rule_pcs subject with
    | Some pc -> pc
    | None -> (
      match Hashtbl.find_opt t.token_pcs subject with
      | Some pc -> pc
      | None -> (
        match Hashtbl.find_opt t.index subject with
        | Some i -> Pc.atom i
        | None -> Pc.True))
  in
  List.filter
    (fun (d : Lint.Diagnostic.t) ->
      Pc.eval (subject_pc d.subject) ~selected)
    (diagnostics t)

type stats = {
  features : int;
  fragments : int;
  core_fragments : int;
  rules : int;
  tokens : int;
  size_ints : int;
  instantiations : int;
  mask_ms : float;
  specialize_ms : float;
}

let stats t =
  Mutex.protect t.lock @@ fun () ->
  {
    features = Array.length t.names;
    fragments = Array.length t.events;
    core_fragments =
      Array.fold_left
        (fun acc ev -> if t.core.(ev.ev_feature) then acc + 1 else acc)
        0 t.events;
    rules = Grammar.Cfg.rule_count t.family_grammar;
    tokens = List.length t.family_tokens;
    size_ints = t.size_ints;
    instantiations = t.instantiations;
    mask_ms = t.mask_ms;
    specialize_ms = t.specialize_ms;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "%d features, %d fragments (%d core), %d family rules, %d tokens, \
     artifact %d ints; %d instantiations (mask %.2f ms, specialize %.2f ms)"
    s.features s.fragments s.core_fragments s.rules s.tokens s.size_ints
    s.instantiations s.mask_ms s.specialize_ms

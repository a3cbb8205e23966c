(* The cold pipeline: compose the configuration directly (no family
   artifact) and generate the parser with the string classifier. It is
   the differential oracle for Core.generate, which must return equal
   products and equal errors. *)

let ( let* ) = Result.bind

exception Conflict of Compose.Composer.error

(* The reference fold: validate, then fold the composition calculus over
   the fragments of the composition sequence, then check coherence with
   defining-feature hints. Family.instantiate replays the same fold over
   the family artifact's presence-condition-filtered events; test_family
   holds the two equal. *)
let compose ~start (model : Feature.Model.t) registry config =
  match Feature.Config.validate model config with
  | _ :: _ as violations ->
    Error (Compose.Composer.Invalid_configuration violations)
  | [] -> (
    let seq = Compose.Composer.sequence model config in
    try
      let rules, tokens =
        List.fold_left
          (fun (rules, tokens) feature_name ->
            match Compose.Fragment.find registry feature_name with
            | None -> (rules, tokens)
            | Some frag ->
              let rules = Compose.Rules.compose_rules rules frag.rules in
              let tokens =
                match Lexing_gen.Spec.merge tokens frag.tokens with
                | Ok merged -> merged
                | Error conflict ->
                  raise
                    (Conflict
                       (Compose.Composer.Token_conflict
                          { feature = feature_name; conflict }))
              in
              (rules, tokens))
          ([], []) seq
      in
      let grammar = Grammar.Cfg.make ~start rules in
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
                  (Compose.Fragment.defining_feature registry nonterminal)
              | Grammar.Cfg.Unreachable_rule _ | Grammar.Cfg.Undefined_start ->
                None)
            fatal
        in
        Error (Compose.Composer.Incoherent_grammar { problems = fatal; hints })
      else Ok { Compose.Composer.grammar; tokens; sequence = seq }
    with Conflict e -> Error e)

let generate ?(label = "custom") config =
  let* out =
    Result.map_error
      (fun e -> Core.Compose_error e)
      (compose ~start:Sql.Model.start_symbol Sql.Model.model Sql.Model.registry
         config)
  in
  let scanner = Lexing_gen.Scanner.create out.Compose.Composer.tokens in
  let factored, _ = Grammar.Factor.normalize out.Compose.Composer.grammar in
  let* parser =
    Result.map_error
      (fun e -> Core.Generation_error e)
      (Parser_gen.Engine.generate
         ~interner:(Lexing_gen.Scanner.interner scanner)
         ~classify:(String_predict.classifier factored)
         factored)
  in
  Ok
    {
      Core.label;
      config;
      grammar = out.Compose.Composer.grammar;
      tokens = out.Compose.Composer.tokens;
      scanner;
      parser;
      sequence = out.Compose.Composer.sequence;
    }

module Diagnostic = Diagnostic
module Grammar_lint = Grammar_lint
module Token_lint = Token_lint
module Model_lint = Model_lint

let run ?(k = 2) ?model ?config ?(fragments = []) ?tokens grammar =
  let grammar_diags = Grammar_lint.check ~k grammar in
  let token_diags =
    match tokens with
    | None -> []
    | Some set -> Token_lint.check ~grammar set
  in
  let model_diags =
    match model with
    | None -> []
    | Some m -> Model_lint.check ~fragments m
  in
  let selection_diags =
    match model, config, fragments with
    | Some m, Some c, (_ :: _ as frags) ->
      Model_lint.check_selection ~fragments:frags m c
    | _ -> []
  in
  grammar_diags @ token_diags @ model_diags @ selection_diags

let pp_report = Diagnostic.pp_report
let to_json_lines = Diagnostic.to_json_lines

(* The cold pipeline: compose the configuration directly (no family
   artifact) and generate the parser with the string classifier. It is
   the differential oracle for Core.generate, which must return equal
   products and equal errors. *)

let ( let* ) = Result.bind

let generate ?(label = "custom") config =
  let* out =
    Result.map_error (fun e -> Core.Compose_error e) (Sql.Model.compose config)
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

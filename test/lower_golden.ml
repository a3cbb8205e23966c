(* Prints how a dialect lowers its accept corpus ([Corpus]): one line per
   statement, [Sql_printer.statement] of the lowered AST or the error's
   text. The rules in [test/dune] diff it against
   [golden/lower_<dialect>.txt]; after an intended change, `dune promote`
   rewrites those files.

   Usage: lower_golden.exe DIALECT *)

let corpus = function
  | "minimal" -> Corpus.minimal_accept
  | "scql" -> Corpus.scql_accept
  | "tinysql" -> Corpus.tinysql_accept
  | "embedded" -> Corpus.embedded_accept
  | "analytics" -> Corpus.analytics_accept
  | "full" -> Corpus.full_accept
  | name -> failwith ("no accept corpus for " ^ name)

let () =
  let name = Sys.argv.(1) in
  let g =
    match Dialects.Dialect.find name with
    | None -> failwith ("unknown dialect " ^ name)
    | Some d -> (
      match Core.generate_dialect d with
      | Ok g -> g
      | Error e -> failwith (Fmt.str "generate %s: %a" name Core.pp_error e))
  in
  List.iter
    (fun sql ->
      print_endline
        (match Core.parse_statement g sql with
        | Ok stmt -> Sql_ast.Sql_printer.statement stmt
        | Error e -> Fmt.str "%a" Core.pp_error e))
    (corpus name)

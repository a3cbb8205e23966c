(* Interactive feature configurator — the user interface the paper names as
   work in progress in §5: "a user interface presenting various SQL
   statements and their features. When a user selects different features,
   the required parser is created by composing these features."

   A line-oriented REPL: toggle features, watch validation live, inspect the
   composed grammar, and try statements against the freshly generated
   parser. *)

let help_text =
  {|commands:
  add <feature>      select a feature (closes over parents/mandatory/requires)
  remove <feature>   deselect a feature (and everything that depends on it)
  show [<diagram>]   render a diagram with [x] checkboxes for the selection
  status             validate the current selection
  fix                suggest features that would repair violations
  report             grammar report for the current selection
  grammar            print the composed grammar
  try <sql>          generate a parser and parse one statement
  save <file>        write the selection to a file
  load <file>        replace the selection with one read from a file
  reset [<dialect>]  restart from scratch or from a built-in dialect
  list               list all feature names
  help               this text
  quit               leave the configurator|}

let suggestions config violations =
  List.filter_map
    (fun v ->
      match v with
      | Feature.Config.Or_group_violation { parent } ->
        Option.map
          (fun (p : Feature.Tree.t) ->
            let members =
              List.concat_map
                (fun g ->
                  match g with
                  | Feature.Tree.Or_group ms | Feature.Tree.Alt_group ms ->
                    List.map (fun (m : Feature.Tree.t) -> m.Feature.Tree.name) ms
                  | Feature.Tree.Child _ -> [])
                p.Feature.Tree.groups
            in
            Printf.sprintf "pick at least one of {%s} under %S"
              (String.concat ", " members) parent)
          (Feature.Tree.find Sql.Model.model.Feature.Model.concept parent)
      | Feature.Config.Alt_group_violation { parent; _ } ->
        Some (Printf.sprintf "pick exactly one alternative under %S" parent)
      | Feature.Config.Requires_violation { feature; missing } ->
        Some (Printf.sprintf "add %S (required by %S)" missing feature)
      | Feature.Config.Mandatory_child_missing { child; _ } ->
        Some (Printf.sprintf "add %S (mandatory)" child)
      | _ -> None)
    violations
  |> fun l ->
  ignore config;
  l

let print_status config =
  match Sql.Model.validate config with
  | [] ->
    Printf.printf "valid: %d features selected\n" (Feature.Config.cardinal config)
  | violations ->
    Printf.printf "%d violation(s):\n" (List.length violations);
    List.iter
      (fun v -> Printf.printf "  %s\n" (Fmt.str "%a" Feature.Config.pp_violation v))
      violations;
    List.iter (fun s -> Printf.printf "  hint: %s\n" s) (suggestions config violations)

(* Removing a feature also removes everything whose closure would bring it
   back: descendants and requires-dependents. *)
let remove_feature config name =
  let model = Sql.Model.model in
  let tree = model.Feature.Model.concept in
  let removed = ref [ name ] in
  let depends_on_removed candidate =
    (* ancestors-in-selection chain or requires chain touching a removed one *)
    let rec ancestor_chain (f : string) =
      match Feature.Tree.parent tree f with
      | Some p -> p.Feature.Tree.name :: ancestor_chain p.Feature.Tree.name
      | None -> []
    in
    List.exists (fun r -> List.mem r !removed) (ancestor_chain candidate)
    || List.exists (fun r -> List.mem r !removed) (Feature.Model.requires_of model candidate)
  in
  let rec fix selection =
    let next =
      List.filter
        (fun f ->
          if List.mem f !removed then false
          else if depends_on_removed f then begin
            removed := f :: !removed;
            false
          end
          else true)
        selection
    in
    if List.length next = List.length selection then next else fix next
  in
  let kept = fix (List.filter (fun f -> f <> name) (Feature.Config.to_names config)) in
  (Feature.Config.of_names kept, !removed)

let try_sql config sql =
  match Service.Cache.generate ~label:"configurator" Service.Cache.default config with
  | Error e -> Printf.printf "cannot generate: %s\n" (Fmt.str "%a" Core.pp_error e)
  | Ok g -> (
    match Core.parse_statement g sql with
    | Ok stmt ->
      Printf.printf "accepted: %s\n" (Sql_ast.Sql_printer.statement stmt)
    | Error e -> Printf.printf "rejected: %s\n" (Fmt.str "%a" Core.pp_error e))

let split_command line =
  match String.index_opt line ' ' with
  | None -> (String.trim line, "")
  | Some i ->
    ( String.sub line 0 i,
      String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let run initial =
  let config = ref initial in
  Printf.printf
    "sqlpl configurator — type 'help' for commands, 'quit' to leave.\n";
  print_status !config;
  let continue_loop = ref true in
  while !continue_loop do
    print_string "configure> ";
    match In_channel.input_line stdin with
    | None -> continue_loop := false
    | Some line -> (
      let cmd, arg = split_command line in
      match cmd with
      | "" -> ()
      | "quit" | "exit" -> continue_loop := false
      | "help" -> print_endline help_text
      | "list" ->
        List.iter print_endline
          (Feature.Tree.names Sql.Model.model.Feature.Model.concept)
      | "add" -> (
        match Feature.Tree.find Sql.Model.model.Feature.Model.concept arg with
        | None -> Printf.printf "unknown feature %S (see 'list')\n" arg
        | Some _ ->
          let before = Feature.Config.cardinal !config in
          config :=
            Sql.Model.close (Feature.Config.union !config (Feature.Config.of_names [ arg ]));
          Printf.printf "added %S (+%d features via closure)\n" arg
            (Feature.Config.cardinal !config - before);
          print_status !config)
      | "remove" ->
        if not (Feature.Config.mem arg !config) then
          Printf.printf "%S is not selected\n" arg
        else begin
          let next, removed = remove_feature !config arg in
          config := next;
          Printf.printf "removed %s\n" (String.concat ", " (List.rev removed));
          print_status !config
        end
      | "show" -> (
        let name = if arg = "" then "SQL:2003" else arg in
        match Sql.Model.diagram name with
        | Some tree -> print_string (Feature.Diagram.render_selected !config tree)
        | None -> Printf.printf "no diagram named %S\n" name)
      | "status" -> print_status !config
      | "fix" -> (
        match Sql.Model.validate !config with
        | [] -> print_endline "nothing to fix"
        | violations ->
          List.iter (fun s -> Printf.printf "%s\n" s) (suggestions !config violations))
      | "report" -> (
        match Service.Cache.generate ~label:"configurator" Service.Cache.default !config with
        | Ok g -> print_string (Report.to_string g)
        | Error e -> Printf.printf "cannot generate: %s\n" (Fmt.str "%a" Core.pp_error e))
      | "grammar" -> (
        match Family.instantiate (Core.family ()) !config with
        | Ok out -> print_string (Grammar.Printer.to_ebnf out.Compose.Composer.grammar)
        | Error e ->
          Printf.printf "cannot compose: %s\n" (Fmt.str "%a" Compose.Composer.pp_error e))
      | "try" -> if arg = "" then print_endline "usage: try <sql>" else try_sql !config arg
      | "save" ->
        if arg = "" then print_endline "usage: save <file>"
        else begin
          Config_file.save arg !config;
          Printf.printf "saved %d features to %s\n" (Feature.Config.cardinal !config) arg
        end
      | "load" ->
        if arg = "" then print_endline "usage: load <file>"
        else if not (Sys.file_exists arg) then Printf.printf "no such file: %s\n" arg
        else begin
          config := Sql.Model.close (Config_file.load arg);
          Printf.printf "loaded %s\n" arg;
          print_status !config
        end
      | "reset" -> (
        match arg, Dialects.Dialect.find arg with
        | "", _ ->
          config := Sql.Model.close (Feature.Config.of_names []);
          print_status !config
        | _, Some d ->
          config := d.Dialects.Dialect.config;
          print_status !config
        | _, None -> Printf.printf "unknown dialect %S\n" arg)
      | other -> Printf.printf "unknown command %S (try 'help')\n" other)
  done

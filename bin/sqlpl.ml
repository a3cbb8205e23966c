(* sqlpl — command-line interface of the customizable SQL parser product
   line.

   Subcommands:
     dialects            list the built-in dialects
     features            model statistics / full feature listing
     diagram NAME        render a published feature diagram
     validate            validate a feature selection
     grammar             print the composed grammar of a dialect/selection
     tokens              print the composed token set
     parse SQL           parse a statement and print its CST
     parse --batch FILE  parse a whole statement batch through one session
     report              grammar report for a selection
     lint DIALECT        static-analysis diagnostics for a selection
     diff A B            commonality/variability between two dialects
     cache stats|key     the configuration-keyed parser cache
     serve               long-running parser daemon (TCP / Unix sockets)
     client              send statement batches to a running daemon
     configure           interactive feature selection (the paper's UI)
     run [SCRIPT]        execute statements against an in-memory database

   Every subcommand resolves its front-end through the process-wide
   Service.Cache, so a selection is composed and generated at most once
   per invocation no matter how many times it is referenced. *)

open Cmdliner

(* --- shared options -------------------------------------------------- *)

let dialect_arg =
  let doc =
    Printf.sprintf "Dialect to generate. One of: %s."
      (String.concat ", "
         (List.map (fun (d : Dialects.Dialect.t) -> d.name) Dialects.Dialect.all))
  in
  Arg.(value & opt string "full" & info [ "d"; "dialect" ] ~docv:"DIALECT" ~doc)

let features_arg =
  let doc =
    "Select an explicit feature (repeatable). The selection seed is closed \
     under parents, mandatory children and requires-constraints; when given, \
     it replaces $(b,--dialect)."
  in
  Arg.(value & opt_all string [] & info [ "f"; "feature" ] ~docv:"FEATURE" ~doc)

let config_file_arg =
  let doc =
    "Read the feature selection from $(docv) (one feature per line, '#' \
     comments). Combines with $(b,--feature); replaces $(b,--dialect)."
  in
  Arg.(value & opt (some file) None & info [ "c"; "config" ] ~docv:"FILE" ~doc)

let fail fmt = Printf.ksprintf (fun msg -> `Error (false, msg)) fmt

let resolve_config dialect features config_file =
  let from_file =
    match config_file with
    | None -> Feature.Config.of_names []
    | Some path -> Config_file.load path
  in
  let seeds = Feature.Config.union from_file (Feature.Config.of_names features) in
  if Feature.Config.cardinal seeds = 0 then
    match Dialects.Dialect.find dialect with
    | Some d -> Ok (d.Dialects.Dialect.name, d.Dialects.Dialect.config)
    | None -> Error (Printf.sprintf "unknown dialect %S" dialect)
  else Ok ("custom", Sql.Model.close seeds)

let generate_front_end dialect features config_file =
  match resolve_config dialect features config_file with
  | Error msg -> Error msg
  | Ok (label, config) -> (
    match Service.Cache.generate ~label Service.Cache.default config with
    | Ok g -> Ok g
    | Error e -> Error (Fmt.str "%a" Core.pp_error e))

(* --- dialects -------------------------------------------------------- *)

let dialects_cmd =
  let run () =
    List.iter
      (fun (d : Dialects.Dialect.t) ->
        Printf.printf "%-10s %s\n           %s\n           %d features\n" d.name
          d.title d.description
          (Feature.Config.cardinal d.config))
      Dialects.Dialect.all;
    `Ok ()
  in
  Cmd.v (Cmd.info "dialects" ~doc:"List the built-in dialects")
    Term.(ret (const run $ const ()))

(* --- features --------------------------------------------------------- *)

let features_cmd =
  let stats_flag =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print decomposition statistics only.")
  in
  let run stats =
    let s = Sql.Model.stats in
    Printf.printf "feature diagrams:          %d\n" s.Sql.Model.diagram_count;
    Printf.printf "features across diagrams:  %d\n" s.Sql.Model.features_across_diagrams;
    Printf.printf "distinct features:         %d\n" s.Sql.Model.features_in_model;
    Printf.printf "cross-tree constraints:    %d\n" s.Sql.Model.constraint_count;
    if not stats then begin
      print_newline ();
      print_string
        (Feature.Diagram.render Sql.Model.model.Feature.Model.concept)
    end;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "features"
       ~doc:"Show the SQL:2003 feature model (statistics and full diagram)")
    Term.(ret (const run $ stats_flag))

(* --- diagram ----------------------------------------------------------- *)

let diagram_cmd =
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:"Diagram name, e.g. 'Query Specification' (paper Figure 1).")
  in
  let list_flag =
    Arg.(value & flag & info [ "list" ] ~doc:"List available diagram names.")
  in
  let selected_arg =
    let doc =
      "Show [x]/[ ] checkboxes for the given dialect's selection."
    in
    Arg.(value & opt (some string) None & info [ "selected" ] ~docv:"DIALECT" ~doc)
  in
  let run list_them selected name =
    if list_them then begin
      List.iter (fun (n, _) -> print_endline n) Sql.Model.diagrams;
      `Ok ()
    end
    else
      match name with
      | None -> fail "a diagram name is required (or use --list)"
      | Some name -> (
        match Sql.Model.diagram name with
        | None -> fail "no diagram named %S (try --list)" name
        | Some tree -> (
          match selected with
          | None ->
            print_string (Feature.Diagram.render tree);
            `Ok ()
          | Some dialect -> (
            match Dialects.Dialect.find dialect with
            | None -> fail "unknown dialect %S" dialect
            | Some d ->
              print_string
                (Feature.Diagram.render_selected d.Dialects.Dialect.config tree);
              `Ok ())))
  in
  Cmd.v
    (Cmd.info "diagram" ~doc:"Render a published per-construct feature diagram")
    Term.(ret (const run $ list_flag $ selected_arg $ name_arg))

(* --- validate ----------------------------------------------------------- *)

let validate_cmd =
  let run dialect features config_file =
    match resolve_config dialect features config_file with
    | Error msg -> fail "%s" msg
    | Ok (label, config) -> (
      match Sql.Model.validate config with
      | [] ->
        Printf.printf "%s: valid (%d features)\n" label
          (Feature.Config.cardinal config);
        `Ok ()
      | violations ->
        List.iter
          (fun v ->
            Printf.printf "violation: %s\n" (Fmt.str "%a" Feature.Config.pp_violation v))
          violations;
        fail "%s: %d violation(s)" label (List.length violations))
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Validate a feature selection against the model")
    Term.(ret (const run $ dialect_arg $ features_arg $ config_file_arg))

(* --- grammar / tokens ------------------------------------------------------ *)

let grammar_cmd =
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("ebnf", `Ebnf); ("bnf", `Bnf); ("antlr", `Antlr) ]) `Ebnf
      & info [ "format" ] ~docv:"FMT" ~doc:"Output notation: ebnf, bnf or antlr.")
  in
  let run dialect features config_file format =
    match generate_front_end dialect features config_file with
    | Error msg -> fail "%s" msg
    | Ok g ->
      let text =
        match format with
        | `Ebnf -> Grammar.Printer.to_ebnf g.Core.grammar
        | `Bnf -> Grammar.Printer.to_bnf g.Core.grammar
        | `Antlr -> Grammar.Printer.to_antlr g.Core.grammar
      in
      print_string text;
      Printf.printf "\n-- %d rules, %d alternatives, %d tokens\n"
        (Grammar.Cfg.rule_count g.Core.grammar)
        (Grammar.Cfg.alternative_count g.Core.grammar)
        (List.length g.Core.tokens);
      `Ok ()
  in
  Cmd.v
    (Cmd.info "grammar" ~doc:"Print the composed grammar for a selection")
    Term.(ret (const run $ dialect_arg $ features_arg $ config_file_arg $ format_arg))

let tokens_cmd =
  let run dialect features config_file =
    match generate_front_end dialect features config_file with
    | Error msg -> fail "%s" msg
    | Ok g ->
      print_string (Fmt.str "%a" Lexing_gen.Spec.pp g.Core.tokens);
      `Ok ()
  in
  Cmd.v
    (Cmd.info "tokens" ~doc:"Print the composed token set for a selection")
    Term.(ret (const run $ dialect_arg $ features_arg $ config_file_arg))

(* --- parse -------------------------------------------------------------------- *)

let parse_cmd =
  let sql_arg =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"SQL" ~doc:"Statement to parse (omit with $(b,--batch)).")
  in
  let ast_flag =
    Arg.(value & flag & info [ "ast" ] ~doc:"Print the lowered AST re-printed as SQL.")
  in
  let batch_arg =
    let doc =
      "Parse a whole batch: read semicolon-separated statements from $(docv) \
       and run them through one parse session, reusing the generated parser \
       and scanner across the batch. Prints one line per statement and \
       aggregate throughput statistics; exits nonzero when any statement is \
       rejected."
    in
    Arg.(value & opt (some file) None & info [ "batch" ] ~docv:"FILE" ~doc)
  in
  let domains_arg =
    let doc =
      "Shard a $(b,--batch) run across $(docv) OCaml domains (parallel \
       workers sharing the one generated front-end). Results and statistics \
       are identical to a single-domain run; only the wall time changes. \
       Requests beyond the runtime's recommended domain count are clamped \
       with a warning."
    in
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)
  in
  let stdin_flag =
    Arg.(
      value & flag
      & info [ "stdin" ]
          ~doc:
            "Stream semicolon-separated statements from standard input in \
             fixed-size chunks, parsing each statement as soon as its \
             terminating $(b,;) arrives. Memory stays bounded by the chunk \
             size plus the largest single statement, so unbounded scripts \
             are fine.")
  in
  let chunk_size_arg =
    let doc = "Chunk size for $(b,--stdin) streaming, in bytes." in
    Arg.(value & opt int 65536 & info [ "chunk-size" ] ~docv:"BYTES" ~doc)
  in
  let run_batch g path domains =
    if domains < 1 then fail "--domains must be at least 1"
    else begin
    let session = Service.Session.create g in
    let script = In_channel.with_open_text path In_channel.input_all in
    let batch = Service.Session.parse_script ~domains session script in
    List.iter
      (fun (item : Service.Session.item) ->
        match item.Service.Session.result with
        | Ok _ ->
          Printf.printf "#%d ok (%d tokens)\n" item.Service.Session.index
            item.Service.Session.token_count
        | Error e ->
          Printf.printf "#%d FAIL %s\n" item.Service.Session.index
            (Fmt.str "%a" Core.pp_error e))
      batch.Service.Session.items;
    let stats = batch.Service.Session.batch_stats in
    Fmt.pr "-- %a@." Service.Session.pp_stats stats;
    if stats.Service.Session.rejected = 0 then `Ok ()
    else fail "%d of %d statement(s) rejected" stats.Service.Session.rejected
        stats.Service.Session.statements
    end
  in
  let run_stdin g chunk_size =
    if chunk_size < 1 then fail "--chunk-size must be at least 1"
    else begin
      let session = Service.Session.create g in
      let stats =
        Service.Session.parse_stream ~chunk_size
          ~parse:Core.parse_cst_counted session
          ~on_item:(fun (item : Service.Session.item) ->
            match item.Service.Session.result with
            | Ok _ ->
              Printf.printf "#%d ok (%d tokens)\n" item.Service.Session.index
                item.Service.Session.token_count
            | Error e ->
              Printf.printf "#%d FAIL %s\n" item.Service.Session.index
                (Fmt.str "%a" Core.pp_error e))
          ~read:(fun buf off len -> In_channel.input In_channel.stdin buf off len)
      in
      Fmt.pr "-- %a@." Service.Session.pp_stats stats;
      if stats.Service.Session.rejected = 0 then `Ok ()
      else
        fail "%d of %d statement(s) rejected" stats.Service.Session.rejected
          stats.Service.Session.statements
    end
  in
  let run dialect features config_file ast batch domains use_stdin chunk_size
      sql =
    match generate_front_end dialect features config_file with
    | Error msg -> fail "%s" msg
    | Ok g -> (
      match (batch, sql) with
      | _ when use_stdin ->
        if batch <> None || sql <> None then
          fail "--stdin excludes --batch and SQL arguments"
        else run_stdin g chunk_size
      | Some path, None -> run_batch g path domains
      | Some _, Some _ -> fail "--batch and a SQL argument are exclusive"
      | None, None ->
        fail "a SQL statement (or --batch FILE, or --stdin) is required"
      | None, Some sql -> (
        if ast then
          match Core.parse_statement g sql with
          | Ok stmt ->
            print_endline (Sql_ast.Sql_printer.statement stmt);
            `Ok ()
          | Error e -> fail "%s" (Fmt.str "%a" Core.pp_error e)
        else
          match Core.parse_rows g sql with
          | Ok rows ->
            let o = Parser_gen.Out.create 1024 in
            Parser_gen.Rows.render o rows;
            Parser_gen.Out.add_char o '\n';
            output stdout o.buf 0 o.len;
            `Ok ()
          | Error e -> fail "%s" (Fmt.str "%a" Core.pp_error e)))
  in
  Cmd.v
    (Cmd.info "parse"
       ~doc:"Parse one statement — or a whole batched session, or a \
             streamed script — with a tailored parser")
    Term.(
      ret
        (const run $ dialect_arg $ features_arg $ config_file_arg $ ast_flag
        $ batch_arg $ domains_arg $ stdin_flag $ chunk_size_arg $ sql_arg))

(* --- report -------------------------------------------------------------------- *)

let report_cmd =
  let run dialect features config_file =
    match generate_front_end dialect features config_file with
    | Error msg -> fail "%s" msg
    | Ok g ->
      print_string (Report.to_string g);
      `Ok ()
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Grammar report for a selection: sizes, statement classes, LL(1) \
             diagnostics, per-feature contributions")
    Term.(ret (const run $ dialect_arg $ features_arg $ config_file_arg))

(* --- lint ---------------------------------------------------------------------- *)

let lint_cmd =
  let dialect_pos_arg =
    let doc =
      Printf.sprintf
        "Dialect to lint. One of: %s. Ignored when $(b,--feature) or \
         $(b,--config) give an explicit selection."
        (String.concat ", "
           (List.map (fun (d : Dialects.Dialect.t) -> d.name) Dialects.Dialect.all))
    in
    Arg.(value & pos 0 string "full" & info [] ~docv:"DIALECT" ~doc)
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output format: text (human-readable report) or json \
                (one JSON object per diagnostic, one per line).")
  in
  let family_flag =
    Arg.(
      value & flag
      & info [ "family" ]
          ~doc:
            "Additionally report the family-based analysis: lint runs once \
             over the variability-aware 150% grammar and its findings are \
             filtered to this configuration by presence condition. \
             Informational — the per-product lint above stays the \
             authoritative gate.")
  in
  let run features config_file format family dialect =
    match resolve_config dialect features config_file with
    | Error msg -> fail "%s" msg
    | Ok (label, config) -> (
      (* The product comes from the cache, composed once; a product that
         composes but does not generate is still linted, from its
         composition, without the dispatch lines. *)
      let product =
        match Service.Cache.generate ~label Service.Cache.default config with
        | Ok g -> Ok (g.Core.grammar, g.Core.tokens, Some g)
        | Error (Core.Compose_error e) -> Error e
        | Error _ ->
          Result.map
            (fun (out : Compose.Composer.output) ->
              (out.grammar, out.tokens, None))
            (Family.instantiate (Core.family ()) config)
      in
      match product with
      | Error e -> fail "%s: %s" label (Fmt.str "%a" Compose.Composer.pp_error e)
      | Ok (grammar, tokens, generated) ->
        let diags =
          Lint.run ~model:Sql.Model.model ~config
            ~fragments:Sql.Model.fragment_rules ~tokens grammar
        in
        (match format with
         | `Text ->
           Printf.printf "lint %s (%d features)\n" label
             (Feature.Config.cardinal config);
           Fmt.pr "%a@." Lint.pp_report diags;
           (* Where the generated parser will actually backtrack: the
              dispatch summary of the parser production builds, naming
              the rules whose conflicts force fallback. *)
           (match generated with
            | None -> ()
            | Some g ->
              let s = Core.dispatch_summary g in
              Fmt.pr "dispatch: %a@." Parser_gen.Engine.pp_summary s;
              List.iter
                (fun (c : Parser_gen.Engine.nt_class) ->
                  if c.Parser_gen.Engine.nt_fallbacks > 0 then
                    Fmt.pr
                      "  backtracks: <%s> (%d ambiguous point(s), on the \
                       ambiguous lookaheads only)@."
                      c.Parser_gen.Engine.nt_name
                      c.Parser_gen.Engine.nt_fallbacks)
                s.Parser_gen.Engine.classes);
           if family then begin
             let fam = Core.family () in
             let fdiags = Family.diagnostics_for fam config in
             Fmt.pr "family (pc-filtered, informational): %d finding(s)@."
               (List.length fdiags);
             Fmt.pr "%a@." Lint.pp_report fdiags
           end
         | `Json -> print_string (Lint.to_json_lines diags));
        if Lint.Diagnostic.has_errors diags then
          fail "%s: lint found %d error(s)" label
            (List.length (Lint.Diagnostic.errors diags))
        else `Ok ())
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the static-analysis pass over a composed product: grammar \
             (reachability, productivity, duplicate alternatives, LL(k) \
             conflicts for k <= 2), token set (overlaps, keyword shadowing, \
             unused/undeclared terminals) and feature model (dead features, \
             false optionals, redundant constraints, fragment coverage). \
             Exits nonzero when any Error-severity diagnostic is found.")
    Term.(
      ret
        (const run $ features_arg $ config_file_arg $ format_arg $ family_flag
       $ dialect_pos_arg))

(* --- diff ---------------------------------------------------------------------- *)

let diff_cmd =
  let a_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIALECT_A" ~doc:"First dialect.")
  in
  let b_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"DIALECT_B" ~doc:"Second dialect.")
  in
  let run a b =
    match Dialects.Dialect.find a, Dialects.Dialect.find b with
    | None, _ -> fail "unknown dialect %S" a
    | _, None -> fail "unknown dialect %S" b
    | Some da, Some db ->
      let ca = da.Dialects.Dialect.config and cb = db.Dialects.Dialect.config in
      let names = Feature.Tree.names Sql.Model.model.Feature.Model.concept in
      let shared, only_a, only_b =
        List.fold_left
          (fun (shared, oa, ob) n ->
            match Feature.Config.mem n ca, Feature.Config.mem n cb with
            | true, true -> (n :: shared, oa, ob)
            | true, false -> (shared, n :: oa, ob)
            | false, true -> (shared, oa, n :: ob)
            | false, false -> (shared, oa, ob))
          ([], [], []) names
      in
      Printf.printf "commonality: %d shared feature(s)\n" (List.length shared);
      Printf.printf "\nonly in %s (%d):\n" a (List.length only_a);
      List.iter (fun n -> Printf.printf "  %s\n" n) (List.rev only_a);
      Printf.printf "\nonly in %s (%d):\n" b (List.length only_b);
      List.iter (fun n -> Printf.printf "  %s\n" n) (List.rev only_b);
      (match Core.generate_dialect da, Core.generate_dialect db with
       | Ok ga, Ok gb ->
         Printf.printf "\ngrammar size: %s %d rules / %d tokens, %s %d rules / %d tokens\n"
           a
           (Grammar.Cfg.rule_count ga.Core.grammar)
           (List.length ga.Core.tokens)
           b
           (Grammar.Cfg.rule_count gb.Core.grammar)
           (List.length gb.Core.tokens)
       | _, _ -> ());
      `Ok ()
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Commonality/variability analysis between two dialects")
    Term.(ret (const run $ a_arg $ b_arg))

(* --- cache --------------------------------------------------------------------- *)

let cache_stats_cmd =
  let run () =
    (* Resolve every shipped dialect twice through the shared cache: the
       first pass pays generation (misses), the second hits. *)
    let cache = Service.Cache.default in
    let time f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, (Unix.gettimeofday () -. t0) *. 1e3)
    in
    Printf.printf "%-10s %-32s %10s %10s\n" "dialect" "digest" "cold" "warm";
    let rec go = function
      | [] ->
        Fmt.pr "--@.%a@." Service.Cache.pp_stats (Service.Cache.stats cache);
        Fmt.pr "family: %a@." Family.pp_stats (Family.stats (Core.family ()));
        `Ok ()
      | (d : Dialects.Dialect.t) :: rest -> (
        let digest = Service.Digest_key.of_config d.config in
        match time (fun () -> Service.Cache.generate_dialect cache d) with
        | Error e, _ ->
          fail "generate %s: %s" d.name (Fmt.str "%a" Core.pp_error e)
        | Ok _, cold ->
          let _, warm = time (fun () -> Service.Cache.generate_dialect cache d) in
          Printf.printf "%-10s %-32s %8.2fms %8.2fms\n" d.name
            (Service.Digest_key.to_hex digest)
            cold warm;
          go rest)
    in
    go Dialects.Dialect.all
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Resolve all shipped dialects through the configuration-keyed \
             parser cache (cold, then warm) and print its hit/miss/eviction \
             counters")
    Term.(ret (const run $ const ()))

let cache_key_cmd =
  let run dialect features config_file =
    match resolve_config dialect features config_file with
    | Error msg -> fail "%s" msg
    | Ok (label, config) ->
      Printf.printf "%s %s (%d features)\n"
        (Service.Digest_key.to_hex (Service.Digest_key.of_config config))
        label
        (Feature.Config.cardinal config);
      `Ok ()
  in
  Cmd.v
    (Cmd.info "key"
       ~doc:"Print the canonical (order-insensitive) cache digest of a \
             selection")
    Term.(ret (const run $ dialect_arg $ features_arg $ config_file_arg))

let cache_cmd =
  Cmd.group
    (Cmd.info "cache"
       ~doc:"The configuration-keyed parser cache: canonical digests and \
             hit/miss statistics")
    [ cache_stats_cmd; cache_key_cmd ]

(* --- serve / client -------------------------------------------------------------- *)

let parse_host_port s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "bad address %S (expected HOST:PORT)" s)
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p >= 0 && p < 65536 ->
      Ok (Service.Wire.Tcp ((if host = "" then "127.0.0.1" else host), p))
    | _ -> Error (Printf.sprintf "bad port %S in %S" port s))

let resolve_address listen unix_path =
  match (listen, unix_path) with
  | _, Some path -> Ok (Service.Wire.Unix_socket path)
  | Some hp, None -> parse_host_port hp
  | None, None -> Ok (Service.Wire.Tcp ("127.0.0.1", 7433))

let listen_arg =
  let doc = "TCP address to serve on / connect to, as $(i,HOST:PORT)." in
  Arg.(value & opt (some string) None & info [ "listen"; "connect" ] ~docv:"HOST:PORT" ~doc)

let unix_arg =
  let doc = "Unix-domain socket path (overrides the TCP address)." in
  Arg.(value & opt (some string) None & info [ "unix" ] ~docv:"PATH" ~doc)

let max_frame_arg =
  let doc = "Largest accepted wire frame, in bytes." in
  Arg.(
    value
    & opt int Service.Wire.default_max_frame
    & info [ "max-frame" ] ~docv:"BYTES" ~doc)

let serve_cmd =
  let workers_arg =
    let doc =
      "Worker domains serving connections in parallel (the acceptor deals \
       connections onto a shared queue, exactly like parse --batch \
       --domains deals statements)."
    in
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let preload_flag =
    Arg.(
      value & flag
      & info [ "preload" ]
          ~doc:
            "Compose and generate every shipped dialect into the server \
             cache before accepting connections, so digest-pinned hellos \
             resolve immediately and first requests never pay a cold \
             compose.")
  in
  let stream_flag =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Additionally accept raw streaming connections: first byte \
             $(b,S), one $(i,<dialect>) header line, then \
             unframed SQL bytes to EOF — answered one $(b,ok)/$(b,err) \
             line per statement at a fixed memory ceiling.")
  in
  let run listen unix_path workers max_frame preload stream =
    if workers < 1 then fail "--workers must be at least 1"
    else
      match resolve_address listen unix_path with
      | Error msg -> fail "%s" msg
      | Ok addr -> (
        match Service.Server.start ~workers ~max_frame ~stream addr with
        | Error msg -> fail "%s" msg
        | Ok server ->
          if preload then
            List.iter
              (fun (d : Dialects.Dialect.t) ->
                match
                  Service.Cache.generate_dialect (Service.Server.cache server) d
                with
                | Ok _ -> ()
                | Error e ->
                  Printf.eprintf "sqlpl: preload %s: %s\n%!" d.name
                    (Fmt.str "%a" Core.pp_error e))
              Dialects.Dialect.all;
          Fmt.pr "sqlpl: serving on %a (%d worker(s)%s)@."
            Service.Wire.pp_address
            (Service.Server.address server)
            workers
            (if preload then ", dialects preloaded" else "");
          let stop_now = Atomic.make false in
          let on_signal _ = Atomic.set stop_now true in
          Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
          Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
          while not (Atomic.get stop_now) do
            try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
          done;
          Service.Server.stop server;
          let s = Service.Server.stats server in
          Fmt.pr
            "sqlpl: stopped after %d connection(s), %d request(s), %d wire \
             error(s)@."
            s.Service.Server.connections s.Service.Server.requests
            s.Service.Server.wire_errors;
          `Ok ())
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the parser service: a long-running daemon speaking \
          length-prefixed binary frames over TCP or Unix sockets. Each connection pins \
          one front-end via its hello (dialect, feature list, or resident \
          cache digest) and streams statement batches through it.")
    Term.(
      ret
        (const run $ listen_arg $ unix_arg $ workers_arg $ max_frame_arg
       $ preload_flag $ stream_flag))

let client_cmd =
  let digest_arg =
    let doc =
      "Pin the front-end by the hex digest of a configuration already \
       resident in the server's cache (see $(b,sqlpl cache key))."
    in
    Arg.(value & opt (some string) None & info [ "digest" ] ~docv:"HEX" ~doc)
  in
  let recognize_flag =
    Arg.(
      value & flag
      & info [ "recognize" ]
          ~doc:"Accept/reject only; skip CST rendering and transfer.")
  in
  let batch_arg =
    let doc = "Read semicolon-separated statements from $(docv)." in
    Arg.(value & opt (some file) None & info [ "batch" ] ~docv:"FILE" ~doc)
  in
  let sql_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"SQL" ~doc:"Statements to send (each one statement).")
  in
  let run listen unix_path dialect features config_file digest recognize
      max_frame batch sqls =
    let selection =
      match digest with
      | Some hex -> Ok (Service.Wire.Digest hex)
      | None ->
        if features = [] && config_file = None then
          Ok (Service.Wire.Dialect dialect)
        else (
          match resolve_config dialect features config_file with
          | Error msg -> Error msg
          | Ok (_, config) ->
            Ok (Service.Wire.Features (Feature.Config.to_names config)))
    in
    let statements =
      match batch with
      | Some path ->
        Core.split_statements
          (In_channel.with_open_text path In_channel.input_all)
      | None -> sqls
    in
    match (selection, resolve_address listen unix_path) with
    | Error msg, _ | _, Error msg -> fail "%s" msg
    | Ok selection, Ok addr -> (
      if statements = [] then fail "no statements (give SQL or --batch FILE)"
      else
        match Service.Client.connect ~max_frame ~selection addr with
        | Error e -> fail "%s" (Fmt.str "%a" Service.Wire.pp_error e)
        | Ok (client, ok) ->
          Fmt.pr "connected: %s (%d features, digest %s)@." ok.Service.Wire.label
            ok.Service.Wire.features ok.Service.Wire.digest;
          let mode =
            if recognize then Service.Wire.Recognize else Service.Wire.Cst
          in
          let result =
            match Service.Client.request ~mode client statements with
            | Error e -> fail "%s" (Fmt.str "%a" Service.Wire.pp_error e)
            | Ok reply ->
              List.iteri
                (fun i outcome ->
                  match outcome with
                  | Service.Wire.Accepted { tokens; cst } ->
                    Printf.printf "#%d ok (%d tokens)\n" i tokens;
                    Option.iter
                      (fun c -> print_endline (Service.Wire.cst_text c))
                      cst
                  | Service.Wire.Rejected e ->
                    Fmt.pr "#%d FAIL %a@." i Service.Wire.pp_error e)
                reply.Service.Wire.items;
              let s = reply.Service.Wire.stats in
              Printf.printf
                "-- %d statement(s): %d accepted, %d rejected; %d token(s) \
                 in %.3fms server-side\n"
                s.Service.Wire.statements s.Service.Wire.accepted
                s.Service.Wire.rejected s.Service.Wire.tokens
                (Int64.to_float s.Service.Wire.elapsed_ns /. 1e6);
              if s.Service.Wire.rejected = 0 then `Ok ()
              else
                fail "%d of %d statement(s) rejected" s.Service.Wire.rejected
                  s.Service.Wire.statements
          in
          Service.Client.close client;
          result)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send statements to a running $(b,sqlpl serve) daemon and print \
          the per-statement results and server-side statistics.")
    Term.(
      ret
        (const run $ listen_arg $ unix_arg $ dialect_arg $ features_arg
       $ config_file_arg $ digest_arg $ recognize_flag $ max_frame_arg $ batch_arg $ sql_arg))

(* --- configure ----------------------------------------------------------------- *)

let configure_cmd =
  (* Unlike the other subcommands, configuring starts from an empty selection
     unless a starting point is requested explicitly. *)
  let start_dialect_arg =
    let doc = "Start from a built-in dialect instead of an empty selection." in
    Arg.(value & opt (some string) None & info [ "d"; "dialect" ] ~docv:"DIALECT" ~doc)
  in
  let run dialect features config_file =
    let initial =
      match dialect, features, config_file with
      | None, [], None -> Ok ("empty", Sql.Model.close (Feature.Config.of_names []))
      | Some d, _, _ -> resolve_config d features config_file
      | None, _, _ -> resolve_config "" features config_file
    in
    match initial with
    | Error msg -> fail "%s" msg
    | Ok (_, config) ->
      Configure.run config;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "configure"
       ~doc:"Interactively select features and generate parsers (the paper's \
             envisioned configuration UI)")
    Term.(ret (const run $ start_dialect_arg $ features_arg $ config_file_arg))

(* --- run ------------------------------------------------------------------------ *)

let print_outcome = function
  | Engine.Executor.Rows rs ->
    print_endline (String.concat " | " rs.Engine.Executor.columns);
    List.iter
      (fun row ->
        print_endline (String.concat " | " (List.map Engine.Value.to_string row)))
      rs.Engine.Executor.rows;
    Printf.printf "(%d rows)\n" (List.length rs.Engine.Executor.rows)
  | Engine.Executor.Affected n -> Printf.printf "%d row(s) affected\n" n
  | Engine.Executor.Done msg -> print_endline msg

let run_cmd =
  let script_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"SCRIPT"
          ~doc:"SQL script (semicolon-separated). Reads stdin when omitted.")
  in
  let run dialect features config_file script =
    match generate_front_end dialect features config_file with
    | Error msg -> fail "%s" msg
    | Ok g ->
      let session = Core.session g in
      let text =
        match script with
        | Some path -> In_channel.with_open_text path In_channel.input_all
        | None -> In_channel.input_all stdin
      in
      let rec go = function
        | [] -> `Ok ()
        | sql :: rest -> (
          Printf.printf "> %s\n" (String.trim sql);
          match Core.run session sql with
          | Ok outcome ->
            print_outcome outcome;
            go rest
          | Error e -> fail "%s" (Fmt.str "%a" Core.pp_error e))
      in
      go (Core.split_statements text)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute a SQL script against an in-memory database with a \
             tailored front-end")
    Term.(ret (const run $ dialect_arg $ features_arg $ config_file_arg $ script_arg))

let () =
  let info =
    Cmd.info "sqlpl" ~version:"1.0.0"
      ~doc:"Customizable SQL parsers from feature compositions (EDBT'08 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            dialects_cmd; features_cmd; diagram_cmd; validate_cmd; grammar_cmd;
            tokens_cmd; parse_cmd; report_cmd; lint_cmd; diff_cmd;
            cache_cmd; serve_cmd; client_cmd; configure_cmd;
            run_cmd;
          ]))

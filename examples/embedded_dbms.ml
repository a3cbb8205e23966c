(* Tailor-made data management for an embedded device (the FAME-DBMS
   motivation the paper belongs to).

   An embedded deployment should carry only the SQL it uses: this example
   compares the footprint of every dialect's generated front-end and runs
   a small device workload (configuration store + event log) on the
   embedded dialect.

   Run with: dune exec examples/embedded_dbms.exe *)

let () =
  print_endline "-- front-end footprint per dialect --";
  Printf.printf "%-10s %8s %6s %7s %9s\n" "dialect" "features" "rules"
    "tokens" "keywords";
  List.iter
    (fun (d : Dialects.Dialect.t) ->
      match Core.generate_dialect d with
      | Error e -> Fmt.failwith "%a" Core.pp_error e
      | Ok g ->
        let scanner = Lexing_gen.Scanner.create g.Core.tokens in
        Printf.printf "%-10s %8d %6d %7d %9d\n" d.name
          (Feature.Config.cardinal g.Core.config)
          (Grammar.Cfg.rule_count g.Core.grammar)
          (List.length g.Core.tokens)
          (Lexing_gen.Scanner.keyword_count scanner))
    Dialects.Dialect.all;

  let embedded =
    match Core.generate_dialect Dialects.Dialect.embedded with
    | Ok g -> g
    | Error e -> Fmt.failwith "%a" Core.pp_error e
  in

  print_endline "\n-- device workload (configuration store + event ring) --";
  let session = Core.session embedded in
  let exec sql =
    match Core.run session sql with
    | Ok outcome -> outcome
    | Error e -> Fmt.failwith "%S: %a" sql Core.pp_error e
  in
  ignore
    (exec
       "CREATE TABLE config (cfg_key VARCHAR(24) PRIMARY KEY, cfg_val VARCHAR(64) NOT NULL)");
  ignore
    (exec
       "CREATE TABLE events (seq INTEGER PRIMARY KEY, level INTEGER NOT NULL, msg VARCHAR(48) DEFAULT '')");
  ignore
    (exec
       "INSERT INTO config (cfg_key, cfg_val) VALUES ('wifi.ssid', 'plant-7'), ('sample.hz', '10'), ('fw.rev', '2.4.1')");
  for i = 1 to 40 do
    ignore
      (exec
         (Printf.sprintf
            "INSERT INTO events (seq, level, msg) VALUES (%d, %d, 'event-%d')" i
            (i mod 4) i))
  done;
  (* Ring-buffer style retention: keep the newest 25 events. *)
  ignore (exec "DELETE FROM events WHERE seq <= 15");

  let show sql =
    Printf.printf "embedded> %s\n" sql;
    match exec sql with
    | Engine.Executor.Rows rs ->
      List.iter
        (fun row ->
          Printf.printf "  %s\n"
            (String.concat " | " (List.map Engine.Value.to_string row)))
        rs.Engine.Executor.rows
    | Engine.Executor.Affected n -> Printf.printf "  %d row(s)\n" n
    | Engine.Executor.Done msg -> Printf.printf "  %s\n" msg
  in
  show "SELECT cfg_val FROM config WHERE cfg_key = 'sample.hz'";
  show "SELECT seq, msg FROM events WHERE level >= 3 ORDER BY seq DESC LIMIT 3";
  ignore (exec "UPDATE config SET cfg_val = '25' WHERE cfg_key = 'sample.hz'");
  show "SELECT cfg_key, cfg_val FROM config ORDER BY cfg_key ASC";

  (* Device code uses prepared statements: parse once conceptually, bind per
     lookup (the "Dynamic Parameters" feature). *)
  print_endline "\n-- prepared lookups --";
  List.iter
    (fun key ->
      match
        Core.run_prepared session "SELECT cfg_val FROM config WHERE cfg_key = ?"
          [ Engine.Value.Str key ]
      with
      | Ok (Engine.Executor.Rows { rows = [ [ v ] ]; _ }) ->
        Printf.printf "  %-12s -> %s\n" key (Engine.Value.to_string v)
      | Ok _ -> Printf.printf "  %-12s -> (not set)\n" key
      | Error e -> Printf.printf "  %-12s -> error: %s\n" key (Fmt.str "%a" Core.pp_error e))
    [ "sample.hz"; "fw.rev"; "missing.key" ];

  (* Field diagnostics: the EXPLAIN extension describes the evaluation
     strategy without running the query. *)
  print_endline "\n-- EXPLAIN (diagnostics extension) --";
  show "EXPLAIN SELECT seq, msg FROM events WHERE level >= 3 ORDER BY seq DESC LIMIT 3"

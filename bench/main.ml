(* Benchmark harness: regenerates the paper's reported artifacts (E1–E6) and
   the quantitative tailoring experiments (E7–E14) described in DESIGN.md /
   EXPERIMENTS.md.

   Two kinds of output:
   - report tables computed directly (sizes, counts, accept/reject matrices);
   - timed series measured with Bechamel (one Test per experiment series).

   Absolute numbers depend on the machine; the shapes (who wins, by what
   factor) are what EXPERIMENTS.md records. *)

open Bechamel
open Toolkit

let pf = Printf.printf

let generated_dialects =
  List.map
    (fun (d : Dialects.Dialect.t) ->
      match Core.generate_dialect d with
      | Ok g -> (d, g)
      | Error e -> Fmt.failwith "generate %s: %a" d.Dialects.Dialect.name Core.pp_error e)
    Dialects.Dialect.all

let dialect name = List.find (fun (d, _) -> d.Dialects.Dialect.name = name) generated_dialects
let full_parser = snd (dialect "full")

(* ------------------------------------------------------------------ *)
(* E1 — decomposition statistics (paper §3.1/§5)                       *)
(* ------------------------------------------------------------------ *)

let report_e1 () =
  let s = Sql.Model.stats in
  pf "\n== E1: feature-oriented decomposition of SQL Foundation ==\n";
  pf "%-40s %8s %8s\n" "measure" "paper" "ours";
  pf "%-40s %8s %8d\n" "published feature diagrams" ">= 40" s.Sql.Model.diagram_count;
  pf "%-40s %8s %8d\n" "features across diagrams" "> 500" s.Sql.Model.features_across_diagrams;
  pf "%-40s %8s %8d\n" "distinct features in the model" "-" s.Sql.Model.features_in_model;
  pf "%-40s %8s %8d\n" "cross-tree constraints" "-" s.Sql.Model.constraint_count;
  let products = Feature.Count.products Sql.Model.model.Feature.Model.concept in
  pf "%-40s %8s %8s\n" "valid tree selections (digits)" "-"
    (string_of_int (Feature.Bignum.digits products))

(* ------------------------------------------------------------------ *)
(* E6 — prototype parsers: accept/reject matrix                        *)
(* ------------------------------------------------------------------ *)

let report_e6 () =
  pf "\n== E6: dialect x workload acceptance matrix ==\n";
  let workload_names = [ "minimal"; "scql"; "tinysql"; "embedded"; "analytics" ] in
  pf "%-10s" "dialect";
  List.iter (fun w -> pf " %10s" w) workload_names;
  pf "\n";
  List.iter
    (fun ((d : Dialects.Dialect.t), g) ->
      pf "%-10s" d.name;
      List.iter
        (fun w ->
          let queries = Workloads.queries_for w in
          let accepted = List.length (List.filter (Core.accepts g) queries) in
          pf " %6d/%-3d" accepted (List.length queries))
        workload_names;
      pf "\n")
    generated_dialects

(* ------------------------------------------------------------------ *)
(* E7 — tailoring effect: grammar and scanner size per dialect          *)
(* ------------------------------------------------------------------ *)

let report_e7 () =
  pf "\n== E7: grammar/scanner size vs. selected features ==\n";
  pf "%-10s %9s %6s %6s %8s %7s %9s %7s\n" "dialect" "features" "rules" "alts"
    "symbols" "tokens" "keywords" "puncts";
  List.iter
    (fun ((d : Dialects.Dialect.t), (g : Core.generated)) ->
      let scanner = Lexing_gen.Scanner.create g.Core.tokens in
      pf "%-10s %9d %6d %6d %8d %7d %9d %7d\n" d.name
        (Feature.Config.cardinal g.Core.config)
        (Grammar.Cfg.rule_count g.Core.grammar)
        (Grammar.Cfg.alternative_count g.Core.grammar)
        (Grammar.Cfg.symbol_count g.Core.grammar)
        (List.length g.Core.tokens)
        (Lexing_gen.Scanner.keyword_count scanner)
        (Lexing_gen.Scanner.punct_count scanner))
    generated_dialects

(* E7b — the same tailoring curve over random valid configurations, not just
   the six designed dialects: sample selections of growing size and report
   grammar size (figure-style series). *)
let report_e7_sweep () =
  pf "\n== E7b: grammar size over sampled configurations ==\n";
  pf "%9s %6s %6s %7s\n" "features" "rules" "alts" "tokens";
  (* Samples whose requires-closure trips an OR-group are repaired by
     selecting the group's first member (what the configurator suggests). *)
  let rec repair config budget =
    if budget = 0 then config
    else
      match Feature.Config.validate Sql.Model.model config with
      | [] -> config
      | violations ->
        let additions =
          List.filter_map
            (fun v ->
              match v with
              | Feature.Config.Or_group_violation { parent }
              | Feature.Config.Alt_group_violation { parent; selected = [] } -> (
                match Feature.Tree.find Sql.Model.model.Feature.Model.concept parent with
                | Some p ->
                  List.find_map
                    (fun g ->
                      match g with
                      | Feature.Tree.Or_group ((m : Feature.Tree.t) :: _)
                      | Feature.Tree.Alt_group (m :: _) ->
                        Some m.Feature.Tree.name
                      | _ -> None)
                    p.Feature.Tree.groups
                | None -> None)
              | _ -> None)
            violations
        in
        if additions = [] then config
        else
          repair
            (Sql.Model.close
               (Feature.Config.union config (Feature.Config.of_names additions)))
            (budget - 1)
  in
  let samples =
    List.filter_map
      (fun seed ->
        let config = repair (Feature.Config.sample Sql.Model.model ~seed) 8 in
        if Feature.Config.is_valid Sql.Model.model config then
          match Sql.Model.compose config with
          | Ok out -> Some (Feature.Config.cardinal config, out)
          | Error _ -> None
        else None)
      (List.init 40 (fun i -> i * 37 + 1))
  in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) samples in
  List.iter
    (fun (n, (out : Compose.Composer.output)) ->
      pf "%9d %6d %6d %7d\n" n
        (Grammar.Cfg.rule_count out.Compose.Composer.grammar)
        (Grammar.Cfg.alternative_count out.Compose.Composer.grammar)
        (List.length out.Compose.Composer.tokens))
    sorted;
  pf "(%d valid samples out of 40 drawn)\n" (List.length sorted)

(* ------------------------------------------------------------------ *)
(* E14 — lint subsystem: diagnostic counts and wall-time per dialect    *)
(* ------------------------------------------------------------------ *)

let report_e14 () =
  pf "\n== E14: lint diagnostics across the dialect sweep ==\n";
  pf "%-10s %9s %7s %9s %6s %6s %6s %10s\n" "dialect" "features" "rules"
    "conflicts" "error" "warn" "info" "lint-time";
  List.iter
    (fun ((d : Dialects.Dialect.t), (g : Core.generated)) ->
      let t0 = Unix.gettimeofday () in
      let diags =
        Lint.run ~model:Sql.Model.model ~config:g.Core.config
          ~fragments:Sql.Model.fragment_rules ~tokens:g.Core.tokens
          g.Core.grammar
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      let conflicts =
        List.length
          (List.filter
             (fun (dg : Lint.Diagnostic.t) ->
               dg.Lint.Diagnostic.code = "grammar/ll1-conflict"
               || dg.Lint.Diagnostic.code = "grammar/ll2-conflict")
             diags)
      in
      pf "%-10s %9d %7d %9d %6d %6d %6d %8.1fms\n" d.name
        (Feature.Config.cardinal g.Core.config)
        (Grammar.Cfg.rule_count g.Core.grammar)
        conflicts
        (Lint.Diagnostic.count Lint.Diagnostic.Error diags)
        (Lint.Diagnostic.count Lint.Diagnostic.Warning diags)
        (Lint.Diagnostic.count Lint.Diagnostic.Info diags)
        (elapsed *. 1e3))
    generated_dialects

(* ------------------------------------------------------------------ *)
(* Timed series (Bechamel)                                             *)
(* ------------------------------------------------------------------ *)

(* E8: composition + parser generation time per dialect. *)
let bench_e8 =
  List.map
    (fun ((d : Dialects.Dialect.t), _) ->
      Test.make
        ~name:(Printf.sprintf "E8 compose+generate %s" d.name)
        (Staged.stage (fun () ->
             match Core.generate_dialect d with
             | Ok g -> ignore (Sys.opaque_identity g)
             | Error e -> Fmt.failwith "%a" Core.pp_error e)))
    generated_dialects

(* E9: parse throughput — each dialect parser on its own workload, and the
   full parser on the same workload (the tailored parser should win). *)
let parse_workload (g : Core.generated) queries () =
  List.iter
    (fun sql ->
      match Core.parse_cst g sql with
      | Ok cst -> ignore (Sys.opaque_identity cst)
      | Error e -> Fmt.failwith "parse %S: %a" sql Core.pp_error e)
    queries

let bench_e9 =
  List.concat_map
    (fun ((d : Dialects.Dialect.t), g) ->
      if d.name = "full" then []
      else
        let queries = Workloads.queries_for d.name in
        [
          Test.make
            ~name:(Printf.sprintf "E9 parse %s/%s" d.name d.name)
            (Staged.stage (parse_workload g queries));
          Test.make
            ~name:(Printf.sprintf "E9 parse full/%s" d.name)
            (Staged.stage (parse_workload full_parser queries));
        ])
    generated_dialects

(* E10: scanner throughput, tailored vs. full token set. *)
let bench_e10 =
  let scan scanner () =
    match Lexing_gen.Scanner.scan_tokens scanner Workloads.scanner_input with
    | Ok tokens -> ignore (Sys.opaque_identity (Array.length tokens))
    | Error e -> Fmt.failwith "%a" Lexing_gen.Scanner.pp_error e
  in
  let tailored = Lexing_gen.Scanner.create (snd (dialect "embedded")).Core.tokens in
  let full = Lexing_gen.Scanner.create full_parser.Core.tokens in
  [
    Test.make ~name:"E10 scan embedded" (Staged.stage (scan tailored));
    Test.make ~name:"E10 scan full" (Staged.stage (scan full));
  ]

(* E11: end-to-end parse+execute workload on the engine (TinySQL-style
   sensor aggregation), through the tailored and the full front-end. *)
let engine_workload g () =
  let s = Core.session g in
  let run sql =
    match Core.run s sql with
    | Ok outcome -> ignore (Sys.opaque_identity outcome)
    | Error e -> Fmt.failwith "run %S: %a" sql Core.pp_error e
  in
  List.iter run Workloads.engine_setup;
  List.iter run (Workloads.engine_inserts 64);
  List.iter run Workloads.engine_queries

let bench_e11 =
  (* The tinysql dialect cannot CREATE/INSERT; use the embedded dialect
     extended with aggregation-ish analytics for the tailored side. *)
  [
    Test.make ~name:"E11 run workload full" (Staged.stage (engine_workload full_parser));
    Test.make ~name:"E11 run workload analytics"
      (Staged.stage (engine_workload (snd (dialect "analytics"))));
  ]

(* E12: feature-model analyses. *)
let bench_e12 =
  let full_config = Feature.Config.full Sql.Model.model in
  let tiny_config = (fst (dialect "tinysql")).Dialects.Dialect.config in
  [
    Test.make ~name:"E12 validate full config"
      (Staged.stage (fun () ->
           ignore (Sys.opaque_identity (Sql.Model.validate full_config))));
    Test.make ~name:"E12 validate tinysql config"
      (Staged.stage (fun () ->
           ignore (Sys.opaque_identity (Sql.Model.validate tiny_config))));
    Test.make ~name:"E12 count products"
      (Staged.stage (fun () ->
           ignore
             (Sys.opaque_identity
                (Feature.Count.products Sql.Model.model.Feature.Model.concept))));
    Test.make ~name:"E12 close seed config"
      (Staged.stage (fun () ->
           ignore
             (Sys.opaque_identity
                (Sql.Model.close (Feature.Config.of_names [ "Epoch Duration"; "Where" ])))));
  ]

(* E13 (ablation): the engine's design choices — result memoization and
   FIRST-set pruning — measured on the embedded workload plus a
   nested-parenthesis stress statement. Disabling either never changes the
   accepted language, only the cost. *)
let bench_e13 =
  let d = fst (dialect "analytics") in
  let grammar =
    match Sql.Model.compose d.Dialects.Dialect.config with
    | Ok out -> out
    | Error e -> Fmt.failwith "%a" Compose.Composer.pp_error e
  in
  let variant ~memoize ~prune =
    match
      Parser_gen.Engine.generate ~memoize ~prune grammar.Compose.Composer.grammar
    with
    | Ok p -> p
    | Error e -> Fmt.failwith "%a" Parser_gen.Engine.pp_gen_error e
  in
  let scanner = Lexing_gen.Scanner.create grammar.Compose.Composer.tokens in
  let nested =
    (* Moderately nested parenthesized conditions: the shape that punishes
       naive backtracking. *)
    let rec wrap n acc = if n = 0 then acc else wrap (n - 1) ("(" ^ acc ^ ")") in
    "SELECT a FROM t WHERE " ^ wrap 8 "a = 1 AND b = 2"
  in
  let workload = nested :: Workloads.queries_for "analytics" in
  let tokens =
    List.map
      (fun sql ->
        match Lexing_gen.Scanner.scan_tokens scanner sql with
        | Ok ts -> Array.to_list ts
        | Error e -> Fmt.failwith "%a" Lexing_gen.Scanner.pp_error e)
      workload
  in
  let parse_all p () =
    List.iter
      (fun ts ->
        match Parser_gen.Engine.parse p ts with
        | Ok cst -> ignore (Sys.opaque_identity cst)
        | Error e -> Fmt.failwith "%a" Parser_gen.Engine.pp_parse_error e)
      tokens
  in
  [
    Test.make ~name:"E13 memo+prune (default)"
      (Staged.stage (parse_all (variant ~memoize:true ~prune:true)));
    Test.make ~name:"E13 memo only"
      (Staged.stage (parse_all (variant ~memoize:true ~prune:false)));
    Test.make ~name:"E13 prune only"
      (Staged.stage (parse_all (variant ~memoize:false ~prune:true)));
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel driver                                                      *)
(* ------------------------------------------------------------------ *)

let run_benchmarks tests =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  pf "\n%-36s %16s\n" "benchmark" "time/run";
  List.iter
    (fun test ->
      List.iter
        (fun tst ->
          let results = Benchmark.run cfg instances tst in
          let estimate = Analyze.one ols Instance.monotonic_clock results in
          let nanos =
            match Analyze.OLS.estimates estimate with
            | Some [ t ] -> t
            | _ -> nan
          in
          let name = Test.Elt.name tst in
          if nanos >= 1e9 then pf "%-36s %13.3f s\n" name (nanos /. 1e9)
          else if nanos >= 1e6 then pf "%-36s %12.3f ms\n" name (nanos /. 1e6)
          else if nanos >= 1e3 then pf "%-36s %12.3f us\n" name (nanos /. 1e3)
          else pf "%-36s %12.1f ns\n" name nanos)
        (Test.elements test))
    tests

let () =
  pf "sqlpl benchmark harness — reproduction of \"Generating Highly \
      Customizable SQL Parsers\" (EDBT'08 SETMDM)\n";
  (* `bench/main.exe e7` (or any experiment name below) runs just that
     report; no argument runs the full harness. *)
  match if Array.length Sys.argv > 1 then Some Sys.argv.(1) else None with
  | Some "e1" -> report_e1 ()
  | Some "e6" -> report_e6 ()
  | Some "e7" ->
    report_e7 ();
    report_e7_sweep ()
  | Some "e14" -> report_e14 ()
  | Some other -> Fmt.failwith "unknown experiment %S (try e1 e6 e7 e14)" other
  | None ->
    report_e1 ();
    report_e6 ();
    report_e7 ();
    report_e7_sweep ();
    report_e14 ();
    pf "\n== E8-E13: timed series ==\n";
    run_benchmarks
      (bench_e8 @ bench_e9 @ bench_e10 @ bench_e11 @ bench_e12 @ bench_e13)

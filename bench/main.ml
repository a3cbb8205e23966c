(* Prints the paper's tables (E1, E6, E7, E7b, E14 in DESIGN.md /
   EXPERIMENTS.md): decomposition statistics, the dialect x workload
   acceptance matrix, grammar and scanner sizes per selection, and lint
   diagnostic counts. Every figure is a count, so the output is
   deterministic; `dune runtest` diffs it against test/golden/paper.txt
   (`dune promote` updates that file after an intended change). Timing
   lives in the layer ledger (ledger/). *)

let pf = Printf.printf

let generated_dialects =
  List.map
    (fun (d : Dialects.Dialect.t) ->
      match Core.generate_dialect d with
      | Ok g -> (d, g)
      | Error e -> Fmt.failwith "generate %s: %a" d.Dialects.Dialect.name Core.pp_error e)
    Dialects.Dialect.all

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
  pf "%-10s" "dialect";
  List.iter (fun (w, _) -> pf " %10s" w) Workloads.by_dialect;
  pf "\n";
  List.iter
    (fun ((d : Dialects.Dialect.t), g) ->
      pf "%-10s" d.name;
      List.iter
        (fun (_, queries) ->
          let accepted = List.length (List.filter (Core.accepts g) queries) in
          pf " %6d/%-3d" accepted (List.length queries))
        Workloads.by_dialect;
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
          match Family.instantiate (Core.family ()) config with
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
(* E14 — lint subsystem: diagnostic counts per dialect                   *)
(* ------------------------------------------------------------------ *)

let report_e14 () =
  pf "\n== E14: lint diagnostics across the dialect sweep ==\n";
  pf "%-10s %9s %7s %9s %6s %6s %6s\n" "dialect" "features" "rules"
    "conflicts" "error" "warn" "info";
  List.iter
    (fun ((d : Dialects.Dialect.t), (g : Core.generated)) ->
      let diags =
        Lint.run ~model:Sql.Model.model ~config:g.Core.config
          ~fragments:Sql.Model.fragment_rules ~tokens:g.Core.tokens
          g.Core.grammar
      in
      let conflicts =
        List.length
          (List.filter
             (fun (dg : Lint.Diagnostic.t) ->
               dg.Lint.Diagnostic.code = "grammar/ll1-conflict"
               || dg.Lint.Diagnostic.code = "grammar/ll2-conflict")
             diags)
      in
      pf "%-10s %9d %7d %9d %6d %6d %6d\n" d.name
        (Feature.Config.cardinal g.Core.config)
        (Grammar.Cfg.rule_count g.Core.grammar)
        conflicts
        (Lint.Diagnostic.count Lint.Diagnostic.Error diags)
        (Lint.Diagnostic.count Lint.Diagnostic.Warning diags)
        (Lint.Diagnostic.count Lint.Diagnostic.Info diags))
    generated_dialects

let () =
  pf "sqlpl benchmark harness — reproduction of \"Generating Highly \
      Customizable SQL Parsers\" (EDBT'08 SETMDM)\n";
  report_e1 ();
  report_e6 ();
  report_e7 ();
  report_e7_sweep ();
  report_e14 ()

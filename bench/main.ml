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
(* E15 — parser-service layer: configuration-keyed cache and batched   *)
(* sessions (cold vs. warm compose+generate; session vs. per-statement *)
(* regeneration). Also emits the BENCH_e15.json artifact.              *)
(* ------------------------------------------------------------------ *)

(* Average seconds per run, with the repetition count adapted so that each
   series takes a measurable but bounded slice of wall time. Wall-clock
   ([Unix.gettimeofday]), not [Sys.time]: processor time misstates
   throughput and sums over workers for the domain-sharded series. *)
let now () = Unix.gettimeofday ()

let time_avg f =
  let once () =
    let t0 = now () in
    ignore (Sys.opaque_identity (f ()));
    now () -. t0
  in
  let first = once () in
  let reps = max 3 (min 500 (int_of_float (0.2 /. max 1e-6 first))) in
  let t0 = now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (now () -. t0) /. float reps

let e15_cache_rows () =
  List.map
    (fun ((d : Dialects.Dialect.t), _) ->
      let cold = time_avg (fun () -> Core.generate_dialect d) in
      let cache = Service.Cache.create () in
      (match Service.Cache.generate_dialect cache d with
      | Ok _ -> ()
      | Error e -> Fmt.failwith "warm %s: %a" d.name Core.pp_error e);
      let warm = time_avg (fun () -> Service.Cache.generate_dialect cache d) in
      (d.name, cold, warm, cold /. warm))
    generated_dialects

let e15_workload (g : Core.generated) (d : Dialects.Dialect.t) =
  (* Corpus statements plus grammar-sampled sentences: a batch large enough
     that per-statement regeneration cost dominates visibly. *)
  let sampled = Service.Sentences.sample ~count:100 ~seed:1517 g in
  let corpus = Workloads.queries_for d.Dialects.Dialect.name in
  sampled @ corpus @ corpus

let e15_batch_rows () =
  List.map
    (fun name ->
      let d, g = dialect name in
      let statements = e15_workload g d in
      let n = List.length statements in
      let batched =
        time_avg (fun () ->
            let session = Service.Session.create g in
            Service.Session.parse_batch session statements)
      in
      let cache = Service.Cache.create () in
      let per_statement_cached =
        time_avg (fun () ->
            List.iter
              (fun sql ->
                match Service.Cache.generate_dialect cache d with
                | Ok g -> ignore (Sys.opaque_identity (Core.parse_cst g sql))
                | Error e -> Fmt.failwith "%a" Core.pp_error e)
              statements)
      in
      let regenerate =
        time_avg (fun () ->
            List.iter
              (fun sql ->
                match Core.generate_dialect d with
                | Ok g -> ignore (Sys.opaque_identity (Core.parse_cst g sql))
                | Error e -> Fmt.failwith "%a" Core.pp_error e)
              statements)
      in
      let per_s t = float n /. t in
      ( name,
        n,
        per_s batched,
        per_s per_statement_cached,
        per_s regenerate,
        regenerate /. batched ))
    [ "embedded"; "analytics" ]

let write_e15_json cache_rows batch_rows =
  let oc = open_out "BENCH_e15.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"experiment\": \"e15\",\n  \"cache\": [\n";
  List.iteri
    (fun i (name, cold, warm, speedup) ->
      p
        "    {\"dialect\": %S, \"cold_ms\": %.4f, \"warm_ms\": %.4f, \
         \"speedup\": %.1f}%s\n"
        name (cold *. 1e3) (warm *. 1e3) speedup
        (if i = List.length cache_rows - 1 then "" else ","))
    cache_rows;
  p "  ],\n  \"batch\": [\n";
  List.iteri
    (fun i (name, n, batched, cached, regen, speedup) ->
      p
        "    {\"dialect\": %S, \"statements\": %d, \
         \"batched_stmts_per_s\": %.0f, \"cached_stmts_per_s\": %.0f, \
         \"regenerate_stmts_per_s\": %.0f, \"speedup_vs_regenerate\": \
         %.1f}%s\n"
        name n batched cached regen speedup
        (if i = List.length batch_rows - 1 then "" else ","))
    batch_rows;
  p "  ]\n}\n";
  close_out oc

let report_e15 () =
  pf "\n== E15: parser-service cache and batched sessions ==\n";
  let cache_rows = e15_cache_rows () in
  pf "%-10s %12s %12s %9s\n" "dialect" "cold" "warm" "speedup";
  List.iter
    (fun (name, cold, warm, speedup) ->
      pf "%-10s %10.3fms %10.4fms %8.0fx\n" name (cold *. 1e3) (warm *. 1e3)
        speedup)
    cache_rows;
  let batch_rows = e15_batch_rows () in
  pf "\n%-10s %6s %14s %14s %14s %9s\n" "dialect" "stmts" "session"
    "cached" "regenerate" "speedup";
  List.iter
    (fun (name, n, batched, cached, regen, speedup) ->
      pf "%-10s %6d %12.0f/s %12.0f/s %12.0f/s %8.0fx\n" name n batched cached
        regen speedup)
    batch_rows;
  write_e15_json cache_rows batch_rows;
  pf "(wrote BENCH_e15.json)\n"

(* ------------------------------------------------------------------ *)
(* E16 — interned parse pipeline: the integer-id engine vs. the        *)
(* retained string-path Reference engine (the E15 batched baseline),   *)
(* and domain-sharded batch scaling. Emits BENCH_e16.json.             *)
(* ------------------------------------------------------------------ *)

(* The batched stmts/s recorded for `embedded` in EXPERIMENTS.md E15, on
   the string-path engine this PR replaced; kept in the JSON artifact so
   the speedup target is auditable. *)
let e15_recorded_baseline = 52_763.

type e16_row = {
  e16_dialect : string;
  e16_statements : int;
  e16_tokens : int;
  e16_ref_sps : float;          (* reference pipeline, statements/s *)
  e16_ref_tps : float;          (* reference pipeline, tokens/s *)
  e16_int_sps : float;          (* interned single-domain, statements/s *)
  e16_int_tps : float;          (* interned single-domain, tokens/s *)
  e16_shard_statements : int;   (* size of the sharding workload *)
  e16_domains : (int * float * float) list; (* domains, stmts/s, tokens/s *)
}

let e16_workload ~smoke (g : Core.generated) (d : Dialects.Dialect.t) =
  let corpus = Workloads.queries_for d.Dialects.Dialect.name in
  if smoke then corpus
  else Service.Sentences.sample ~count:300 ~seed:1609 g @ corpus @ corpus

let e16_token_total g statements =
  List.fold_left
    (fun acc sql ->
      match Core.scan_tokens g sql with
      | Ok toks -> acc + Array.length toks - 1
      | Error e -> Fmt.failwith "scan %S: %a" sql Core.pp_error e)
    0 statements

let e16_row ~smoke ~domain_counts name =
  let d, g = dialect name in
  let statements = e16_workload ~smoke g d in
  let n = List.length statements in
  let token_total = e16_token_total g statements in
  (* Baseline: the pre-interning batched pipeline — token lists through the
     string-keyed Reference engine, exactly what E15's session measured. *)
  let refp =
    match Oracle.Reference.generate g.Core.grammar with
    | Ok p -> p
    | Error e -> Fmt.failwith "%a" Parser_gen.Engine.pp_gen_error e
  in
  let ref_time =
    time_avg (fun () ->
        List.iter
          (fun sql ->
            match Core.scan_tokens g sql with
            | Ok toks ->
              ignore
                (Sys.opaque_identity
                   (Oracle.Reference.parse refp (Array.to_list toks)))
            | Error e -> Fmt.failwith "%a" Core.pp_error e)
          statements)
  in
  let session = Service.Session.create g in
  let int_time =
    time_avg (fun () -> Service.Session.parse_batch session statements)
  in
  (* The scaling series runs on a multiplied batch: a shard must be large
     enough that parsing dominates the fixed Domain.spawn cost, as it does
     under sustained traffic. *)
  let shard_statements =
    if smoke then statements
    else List.concat (List.init 8 (fun _ -> statements))
  in
  let shard_n = List.length shard_statements in
  let shard_tokens = token_total * (shard_n / n) in
  let domain_rows =
    List.map
      (fun domains ->
        (* ~clamp:false: the series deliberately measures oversharding
           (including its collapse on small hosts), so the session's
           default clamp must not rewrite the requested count. *)
        let t =
          time_avg (fun () ->
              Service.Session.parse_batch ~clamp:false ~domains session
                shard_statements)
        in
        (domains, float shard_n /. t, float shard_tokens /. t))
      domain_counts
  in
  {
    e16_dialect = name;
    e16_statements = n;
    e16_tokens = token_total;
    e16_ref_sps = float n /. ref_time;
    e16_ref_tps = float token_total /. ref_time;
    e16_int_sps = float n /. int_time;
    e16_int_tps = float token_total /. int_time;
    e16_shard_statements = shard_n;
    e16_domains = domain_rows;
  }

let write_e16_json rows =
  let oc = open_out "BENCH_e16.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"experiment\": \"e16\",\n";
  p "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  p "  \"e15_recorded_baseline_stmts_per_s\": %.0f,\n" e15_recorded_baseline;
  p "  \"rows\": [\n";
  List.iteri
    (fun i row ->
      let shard_base =
        match row.e16_domains with (1, _, tps) :: _ -> tps | _ -> 0.
      in
      let scaling =
        List.map
          (fun (k, sps, tps) ->
            Printf.sprintf
              "{\"domains\": %d, \"stmts_per_s\": %.0f, \
               \"tokens_per_s\": %.0f, \"scaling_vs_1_domain\": %.2f}"
              k sps tps
              (if shard_base > 0. then tps /. shard_base else 0.))
          row.e16_domains
      in
      p
        "    {\"dialect\": %S, \"statements\": %d, \"tokens\": %d,\n\
        \     \"reference_stmts_per_s\": %.0f, \"reference_tokens_per_s\": \
         %.0f,\n\
        \     \"interned_stmts_per_s\": %.0f, \"interned_tokens_per_s\": \
         %.0f,\n\
        \     \"speedup_tokens_vs_reference\": %.2f, \
         \"speedup_stmts_vs_e15_recorded\": %.2f,\n\
        \     \"sharded_statements\": %d,\n\
        \     \"sharded\": [%s]}%s\n"
        row.e16_dialect row.e16_statements row.e16_tokens row.e16_ref_sps
        row.e16_ref_tps row.e16_int_sps row.e16_int_tps
        (if row.e16_ref_tps > 0. then row.e16_int_tps /. row.e16_ref_tps
         else 0.)
        (row.e16_int_sps /. e15_recorded_baseline)
        row.e16_shard_statements
        (String.concat ", " scaling)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ]\n}\n";
  close_out oc

let report_e16 ?(smoke = false) () =
  pf "\n== E16: interned parse pipeline vs. string-path reference ==\n";
  let domain_counts = if smoke then [ 1; 2 ] else [ 1; 2; 4 ] in
  let names = if smoke then [ "embedded" ] else [ "embedded"; "analytics" ] in
  pf "(%d core(s) recommended by the runtime)\n"
    (Domain.recommended_domain_count ());
  let rows = List.map (e16_row ~smoke ~domain_counts) names in
  pf "%-10s %6s %8s %14s %14s %9s\n" "dialect" "stmts" "tokens" "ref tok/s"
    "interned tok/s" "speedup";
  List.iter
    (fun row ->
      pf "%-10s %6d %8d %12.0f/s %12.0f/s %8.2fx\n" row.e16_dialect
        row.e16_statements row.e16_tokens row.e16_ref_tps row.e16_int_tps
        (if row.e16_ref_tps > 0. then row.e16_int_tps /. row.e16_ref_tps
         else 0.))
    rows;
  pf "\n%-10s %8s %8s %14s %14s %9s\n" "dialect" "stmts" "domains" "stmts/s"
    "tokens/s" "scaling";
  List.iter
    (fun row ->
      let shard_base =
        match row.e16_domains with (1, _, tps) :: _ -> tps | _ -> 0.
      in
      List.iter
        (fun (k, sps, tps) ->
          pf "%-10s %8d %8d %12.0f/s %12.0f/s %8.2fx\n" row.e16_dialect
            row.e16_shard_statements k sps tps
            (if shard_base > 0. then tps /. shard_base else 0.))
        row.e16_domains)
    rows;
  if not smoke then begin
    write_e16_json rows;
    pf "(wrote BENCH_e16.json)\n"
  end

(* Reduced E15 for the @bench-smoke alias: exercises the config cache and
   the batched session end-to-end without timing-dependent assertions. *)
let report_e15_smoke () =
  pf "\n== E15 (smoke): config cache + batched session ==\n";
  let d, g = dialect "embedded" in
  let cache = Service.Cache.create () in
  List.iter
    (fun _ ->
      match Service.Cache.generate_dialect cache d with
      | Ok _ -> ()
      | Error e -> Fmt.failwith "cache %s: %a" d.name Core.pp_error e)
    [ (); (); () ];
  let session = Service.Session.create g in
  let batch =
    Service.Session.parse_batch session (Workloads.queries_for "embedded")
  in
  pf "embedded: %s\n"
    (Fmt.str "%a" Service.Session.pp_stats batch.Service.Session.batch_stats)

(* ------------------------------------------------------------------ *)
(* E17 — committed LL(k) dispatch: the one production engine (the      *)
(* bytecode VM over prediction-compiled dispatch) vs. the same         *)
(* generator with dispatch disabled (exactly the E16 interned engine)  *)
(* vs. the string-path Reference, parse-only (tokens are pre-scanned), *)
(* plus the committed-point coverage per dialect.                      *)
(* Emits BENCH_e17.json.                                               *)
(* ------------------------------------------------------------------ *)

type e17_row = {
  e17_dialect : string;
  e17_statements : int;
  e17_tokens : int;
  e17_ref_sps : float;   (* reference engine, statements/s *)
  e17_ref_tps : float;
  e17_memo_sps : float;  (* interned engine, dispatch off = E16 engine *)
  e17_memo_tps : float;
  e17_vm_sps : float;    (* the production engine: VM + committed dispatch *)
  e17_vm_tps : float;
  e17_summary : Parser_gen.Engine.summary;
}

let e17_row ~smoke name =
  let d, g = dialect name in
  let statements = e16_workload ~smoke g d in
  let n = List.length statements in
  (* Parse-only comparison: scanning is identical for all three engines, so
     the workload is pre-scanned once and only [parse] is timed. *)
  let token_arrays =
    List.map
      (fun sql ->
        match Core.scan_tokens g sql with
        | Ok toks -> toks
        | Error e -> Fmt.failwith "scan %S: %a" sql Core.pp_error e)
      statements
  in
  let token_lists = List.map Array.to_list token_arrays in
  let token_total =
    List.fold_left (fun acc a -> acc + Array.length a - 1) 0 token_arrays
  in
  (* The shipped parser runs the left-factored grammar on the VM. The
     memoized baseline is the same generator with ~dispatch:false on the
     *composed* grammar — exactly the engine E16 measured. The reference
     runs the composed grammar too. *)
  let shipped = g.Core.parser in
  let memo =
    match
      Parser_gen.Engine.generate ~dispatch:false
        ~interner:(Lexing_gen.Scanner.interner g.Core.scanner)
        g.Core.grammar
    with
    | Ok p -> p
    | Error e -> Fmt.failwith "%a" Parser_gen.Engine.pp_gen_error e
  in
  let refp =
    match Oracle.Reference.generate g.Core.grammar with
    | Ok p -> p
    | Error e -> Fmt.failwith "%a" Parser_gen.Engine.pp_gen_error e
  in
  let engine_time p =
    time_avg (fun () ->
        List.iter
          (fun toks ->
            ignore (Sys.opaque_identity (Parser_gen.Engine.parse_tokens p toks)))
          token_arrays)
  in
  let vm_time = engine_time shipped in
  let memo_time = engine_time memo in
  let ref_time =
    time_avg (fun () ->
        List.iter
          (fun toks ->
            ignore (Sys.opaque_identity (Oracle.Reference.parse refp toks)))
          token_lists)
  in
  {
    e17_dialect = name;
    e17_statements = n;
    e17_tokens = token_total;
    e17_ref_sps = float n /. ref_time;
    e17_ref_tps = float token_total /. ref_time;
    e17_memo_sps = float n /. memo_time;
    e17_memo_tps = float token_total /. memo_time;
    e17_vm_sps = float n /. vm_time;
    e17_vm_tps = float token_total /. vm_time;
    e17_summary = Parser_gen.Engine.summary shipped;
  }

let write_e17_json rows =
  let oc = open_out "BENCH_e17.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"experiment\": \"e17\",\n";
  p "  \"basis\": \"parse-only (tokens pre-scanned once)\",\n";
  p "  \"rows\": [\n";
  List.iteri
    (fun i row ->
      let s = row.e17_summary in
      p
        "    {\"dialect\": %S, \"statements\": %d, \"tokens\": %d,\n\
        \     \"reference_stmts_per_s\": %.0f, \"reference_tokens_per_s\": \
         %.0f,\n\
        \     \"memoized_stmts_per_s\": %.0f, \"memoized_tokens_per_s\": \
         %.0f,\n\
        \     \"vm_stmts_per_s\": %.0f, \"vm_tokens_per_s\": %.0f,\n\
        \     \"speedup_tokens_vs_memoized\": %.2f, \
         \"speedup_tokens_vs_reference\": %.2f,\n\
        \     \"committed_points\": %d, \"k1_points\": %d, \"k2_points\": \
         %d, \"ambiguous_points\": %d, \"partial_points\": %d,\n\
        \     \"committed_nonterminals\": %d, \"total_nonterminals\": %d,\n\
        \     \"coverage\": %.4f}%s\n"
        row.e17_dialect row.e17_statements row.e17_tokens row.e17_ref_sps
        row.e17_ref_tps row.e17_memo_sps row.e17_memo_tps row.e17_vm_sps
        row.e17_vm_tps
        (if row.e17_memo_tps > 0. then row.e17_vm_tps /. row.e17_memo_tps
         else 0.)
        (if row.e17_ref_tps > 0. then row.e17_vm_tps /. row.e17_ref_tps
         else 0.)
        s.Parser_gen.Engine.committed_points s.Parser_gen.Engine.k1_points
        s.Parser_gen.Engine.k2_points s.Parser_gen.Engine.ambiguous_points
        s.Parser_gen.Engine.partial_points
        s.Parser_gen.Engine.committed_nts s.Parser_gen.Engine.total_nts
        (Parser_gen.Engine.coverage s)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ]\n}\n";
  close_out oc

let report_e17 ?(smoke = false) () =
  pf "\n== E17: committed LL(k) dispatch vs. memoized backtracking ==\n";
  let names =
    if smoke then [ "embedded"; "analytics" ]
    else
      List.map
        (fun ((d : Dialects.Dialect.t), _) -> d.name)
        generated_dialects
  in
  let rows = List.map (e17_row ~smoke) names in
  pf "%-10s %6s %8s %13s %13s %13s %8s %9s\n" "dialect" "stmts" "tokens"
    "ref tok/s" "memo tok/s" "vm tok/s" "vs memo" "coverage";
  List.iter
    (fun row ->
      pf "%-10s %6d %8d %11.0f/s %11.0f/s %11.0f/s %7.2fx %8.1f%%\n"
        row.e17_dialect row.e17_statements row.e17_tokens row.e17_ref_tps
        row.e17_memo_tps row.e17_vm_tps
        (if row.e17_memo_tps > 0. then row.e17_vm_tps /. row.e17_memo_tps
         else 0.)
        (100. *. Parser_gen.Engine.coverage row.e17_summary))
    rows;
  pf "\nper-dialect classification:\n";
  List.iter
    (fun row ->
      let s = row.e17_summary in
      pf "%-10s %s\n" row.e17_dialect
        (Fmt.str "%a" Parser_gen.Engine.pp_summary s);
      List.iter
        (fun (c : Parser_gen.Engine.nt_class) ->
          if c.Parser_gen.Engine.nt_fallbacks > 0 then
            pf "           partial: <%s> (%d ambiguous point(s))\n"
              c.Parser_gen.Engine.nt_name c.Parser_gen.Engine.nt_fallbacks)
        s.Parser_gen.Engine.classes)
    rows;
  if not smoke then begin
    write_e17_json rows;
    pf "(wrote BENCH_e17.json)\n"
  end

(* ------------------------------------------------------------------ *)
(* E18: the production pipeline end to end (scan + parse): the VM over *)
(* the SoA token stream, its CST-free recognition, and the memoized    *)
(* baseline (materialized tokens, dispatch off). Emits BENCH_e18.json. *)
(* ------------------------------------------------------------------ *)

type e18_row = {
  e18_dialect : string;
  e18_statements : int;
  e18_tokens : int;
  e18_memo_sps : float;  (* scan_tokens + the ~dispatch:false engine *)
  e18_memo_tps : float;
  e18_vm_sps : float;    (* Core.parse_cst: VM over the SoA stream *)
  e18_vm_tps : float;
  e18_rec_sps : float;   (* VM recognition: no tokens, no CST *)
  e18_rec_tps : float;
  e18_program_size : int;
  e18_compiled_nts : int;
  e18_total_nts : int;
}

(* The memoized baseline end to end: the same front-end with its parser
   generated without dispatch (no program, no committed region). *)
let e18_memoized (g : Core.generated) =
  match
    Parser_gen.Engine.generate ~dispatch:false
      ~interner:(Lexing_gen.Scanner.interner g.Core.scanner)
      (Parser_gen.Engine.grammar g.Core.parser)
  with
  | Ok parser -> { g with Core.parser }
  | Error e -> Fmt.failwith "%a" Parser_gen.Engine.pp_gen_error e

let e18_row ~smoke name =
  let d, g = dialect name in
  let statements = e16_workload ~smoke g d in
  let n = List.length statements in
  let token_total = e16_token_total g statements in
  let memo = e18_memoized g in
  (* End-to-end timing: every pipeline pays its own scan. *)
  let pipeline_time parse =
    time_avg (fun () ->
        List.iter
          (fun sql -> ignore (Sys.opaque_identity (parse sql)))
          statements)
  in
  let memo_time = pipeline_time (Core.parse_cst memo) in
  let vm_time = pipeline_time (Core.parse_cst g) in
  let rec_time = pipeline_time (Core.recognize g) in
  let program_size, compiled_nts =
    match Parser_gen.Engine.program g.Core.parser with
    | Some p -> (Parser_gen.Program.size p, Parser_gen.Program.compiled_nts p)
    | None -> (0, 0)
  in
  {
    e18_dialect = name;
    e18_statements = n;
    e18_tokens = token_total;
    e18_memo_sps = float n /. memo_time;
    e18_memo_tps = float token_total /. memo_time;
    e18_vm_sps = float n /. vm_time;
    e18_vm_tps = float token_total /. vm_time;
    e18_rec_sps = float n /. rec_time;
    e18_rec_tps = float token_total /. rec_time;
    e18_program_size = program_size;
    e18_compiled_nts = compiled_nts;
    e18_total_nts =
      (Parser_gen.Engine.summary g.Core.parser).Parser_gen.Engine.total_nts;
  }

let write_e18_json rows =
  let oc = open_out "BENCH_e18.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"experiment\": \"e18\",\n";
  p "  \"basis\": \"end-to-end (scan + parse per pipeline)\",\n";
  p "  \"rows\": [\n";
  List.iteri
    (fun i row ->
      p
        "    {\"dialect\": %S, \"statements\": %d, \"tokens\": %d,\n\
        \     \"memoized_stmts_per_s\": %.0f, \"memoized_tokens_per_s\": \
         %.0f,\n\
        \     \"vm_stmts_per_s\": %.0f, \"vm_tokens_per_s\": %.0f,\n\
        \     \"vm_recognize_stmts_per_s\": %.0f, \
         \"vm_recognize_tokens_per_s\": %.0f,\n\
        \     \"speedup_vm_vs_memoized\": %.2f, \
         \"speedup_recognize_vs_memoized\": %.2f,\n\
        \     \"program_size_ints\": %d, \"compiled_nonterminals\": %d, \
         \"total_nonterminals\": %d}%s\n"
        row.e18_dialect row.e18_statements row.e18_tokens row.e18_memo_sps
        row.e18_memo_tps row.e18_vm_sps row.e18_vm_tps row.e18_rec_sps
        row.e18_rec_tps
        (if row.e18_memo_tps > 0. then row.e18_vm_tps /. row.e18_memo_tps
         else 0.)
        (if row.e18_memo_tps > 0. then row.e18_rec_tps /. row.e18_memo_tps
         else 0.)
        row.e18_program_size row.e18_compiled_nts row.e18_total_nts
        (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ]\n}\n";
  close_out oc

let report_e18 ?(smoke = false) () =
  pf "\n== E18: the VM pipeline vs. memoized backtracking (end-to-end) ==\n";
  let names =
    if smoke then [ "embedded"; "analytics" ]
    else
      List.map
        (fun ((d : Dialects.Dialect.t), _) -> d.name)
        generated_dialects
  in
  let rows = List.map (e18_row ~smoke) names in
  pf "%-10s %6s %8s %13s %13s %13s %8s %8s %9s\n" "dialect" "stmts" "tokens"
    "memo tok/s" "vm tok/s" "recog tok/s" "vm x" "recog x" "program";
  List.iter
    (fun row ->
      pf "%-10s %6d %8d %11.0f/s %11.0f/s %11.0f/s %7.2fx %7.2fx %6d ints\n"
        row.e18_dialect row.e18_statements row.e18_tokens row.e18_memo_tps
        row.e18_vm_tps row.e18_rec_tps
        (if row.e18_memo_tps > 0. then row.e18_vm_tps /. row.e18_memo_tps
         else 0.)
        (if row.e18_memo_tps > 0. then row.e18_rec_tps /. row.e18_memo_tps
         else 0.)
        row.e18_program_size)
    rows;
  (* The smoke run doubles as a correctness gate for the harness itself:
     every statement must agree across the three pipelines. *)
  List.iter
    (fun name ->
      let d, g = dialect name in
      let memo = e18_memoized g in
      List.iter
        (fun sql ->
          let a = Core.parse_cst g sql in
          if a <> Core.parse_cst memo sql
             || Result.is_ok a <> Result.is_ok (Core.recognize g sql)
          then
            Fmt.failwith "pipelines disagree on %S (%s)" sql
              d.Dialects.Dialect.name)
        (e16_workload ~smoke:true g d))
    names;
  if not smoke then begin
    write_e18_json rows;
    pf "(wrote BENCH_e18.json)\n"
  end

(* ------------------------------------------------------------------ *)
(* E19: the parser service under concurrent load. A real `sqlpl serve` *)
(* daemon (8 worker domains, loopback TCP) takes batched requests from *)
(* 8 concurrent client connections; we report wire round-trip latency  *)
(* (p50/p99) and sustained request/statement throughput per dialect,   *)
(* and cross-check every reply byte-for-byte against the in-process    *)
(* Session results. Emits BENCH_e19.json.                              *)
(* ------------------------------------------------------------------ *)

module Wire = Service.Wire

type e19_row = {
  e19_dialect : string;
  e19_statements : int;  (* statements per request *)
  e19_requests : int;    (* requests answered across all connections *)
  e19_p50_ms : float;
  e19_p99_ms : float;
  e19_qps : float;       (* requests/s, all connections together *)
  e19_sps : float;       (* statements/s through the service *)
  e19_major : int;       (* GC major collections during the timed run
                            (process-wide: client + server domains) *)
}

let e19_percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

(* The per-request batch: the dialect's own corpus (smoke), widened with
   grammar-sampled sentences in the full run — a realistic statement mix,
   small enough that a request measures the wire and dispatch path, not
   one giant parse. *)
let e19_batch ~smoke name g =
  let corpus = Workloads.queries_for name in
  if smoke then corpus
  else Service.Sentences.sample ~count:28 ~seed:7433 g @ corpus

let e19_reference ~mode g stmts =
  let session = Service.Session.create g in
  Wire.encode_items
    (List.map
       (Service.Server.outcome_of_item mode)
       (Service.Session.parse_batch session stmts).Service.Session.items)

let e19_row ~smoke ~rounds ~connections server name =
  let _, g = dialect name in
  let stmts = e19_batch ~smoke name g in
  (* The determinism gate first: one CST-mode and one recognize-mode reply
     must be byte-identical to the library rendering. *)
  let expect_cst = e19_reference ~mode:Wire.Cst g stmts in
  let expect_rec = e19_reference ~mode:Wire.Recognize g stmts in
  let addr = Service.Server.address server in
  let latencies = Array.make (connections * rounds) 0.0 in
  let failures = Array.make connections None in
  let run i () =
    match
      Service.Client.connect ~selection:(Wire.Dialect name) addr
    with
    | Error e -> failures.(i) <- Some (Fmt.str "connect: %a" Wire.pp_error e)
    | Ok (client, _) ->
      let check mode want =
        match Service.Client.request ~mode client stmts with
        | Error e -> failures.(i) <- Some (Fmt.str "request: %a" Wire.pp_error e)
        | Ok reply ->
          if not (String.equal (Wire.encode_items reply.Wire.items) want) then
            failures.(i) <- Some "service reply differs from library results"
      in
      check Wire.Cst expect_cst;
      check Wire.Recognize expect_rec;
      for r = 0 to rounds - 1 do
        let t0 = now () in
        (match Service.Client.request ~mode:Wire.Recognize client stmts with
        | Ok _ -> ()
        | Error e ->
          failures.(i) <- Some (Fmt.str "request: %a" Wire.pp_error e));
        latencies.((i * rounds) + r) <- now () -. t0
      done;
      Service.Client.close client
  in
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let threads = List.init connections (fun i -> Thread.create (run i) ()) in
  List.iter Thread.join threads;
  let wall = now () -. t0 in
  let major =
    (Gc.quick_stat ()).Gc.major_collections - gc0.Gc.major_collections
  in
  Array.iter
    (function
      | Some msg -> Fmt.failwith "e19 %s: %s" name msg
      | None -> ())
    failures;
  Array.sort compare latencies;
  let requests = connections * rounds in
  {
    e19_dialect = name;
    e19_statements = List.length stmts;
    e19_requests = requests;
    e19_p50_ms = 1e3 *. e19_percentile latencies 0.50;
    e19_p99_ms = 1e3 *. e19_percentile latencies 0.99;
    e19_qps = float requests /. wall;
    e19_sps = float (requests * List.length stmts) /. wall;
    e19_major = major;
  }

let write_e19_json ~workers ~connections rows =
  let oc = open_out "BENCH_e19.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"experiment\": \"e19\",\n";
  p "  \"basis\": \"wire round-trips against sqlpl serve (loopback TCP, \
     recognize mode)\",\n";
  p "  \"workers\": %d,\n" workers;
  p "  \"connections\": %d,\n" connections;
  p "  \"rows\": [\n";
  List.iteri
    (fun i row ->
      p
        "    {\"dialect\": %S, \"engine\": \"vm\", \"statements\": %d, \
         \"requests\": %d,\n\
        \     \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"qps\": %.0f, \
         \"stmts_per_s\": %.0f, \"major_collections\": %d}%s\n"
        row.e19_dialect row.e19_statements row.e19_requests row.e19_p50_ms row.e19_p99_ms row.e19_qps row.e19_sps row.e19_major
        (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ]\n}\n";
  close_out oc

let report_e19 ?(smoke = false) () =
  pf "\n== E19: parser service under concurrent load (8 connections) ==\n";
  let workers = 8 and connections = 8 in
  let rounds = if smoke then 3 else 40 in
  let names =
    if smoke then [ "embedded"; "analytics" ]
    else
      List.map
        (fun ((d : Dialects.Dialect.t), _) -> d.name)
        generated_dialects
  in
  let cache = Service.Cache.create () in
  let server =
    match
      Service.Server.start ~workers ~cache (Wire.Tcp ("127.0.0.1", 0))
    with
    | Ok s -> s
    | Error msg -> Fmt.failwith "e19: %s" msg
  in
  Fun.protect ~finally:(fun () -> Service.Server.stop server) @@ fun () ->
  let rows = List.map (e19_row ~smoke ~rounds ~connections server) names in
  let s = Service.Server.stats server in
  if s.Service.Server.connections < connections then
    Fmt.failwith "e19: only %d connections served" s.Service.Server.connections;
  pf "%-10s %6s %8s %9s %9s %9s %11s\n" "dialect" "stmts" "requests"
    "p50 ms" "p99 ms" "req/s" "stmts/s";
  List.iter
    (fun row ->
      pf "%-10s %6d %8d %9.3f %9.3f %9.0f %9.0f/s\n" row.e19_dialect
        row.e19_statements row.e19_requests row.e19_p50_ms row.e19_p99_ms
        row.e19_qps row.e19_sps)
    rows;
  pf "(every reply cross-checked byte-for-byte against Session.parse_batch)\n";
  if not smoke then begin
    write_e19_json ~workers ~connections rows;
    pf "(wrote BENCH_e19.json)\n"
  end

(* ------------------------------------------------------------------ *)
(* E21 — family-based compilation. The product line's fragments are    *)
(* compiled once into a variability-aware artifact (Family.build);     *)
(* Core.generate instantiates each configuration from it by a          *)
(* presence-condition mask/replay plus interned LL(k) classification.  *)
(* We gate on byte-identical products (grammar, tokens, sequence,      *)
(* dispatch summary) against the cold pipeline kept as the test        *)
(* oracle (Oracle.Cold: direct composition, string classifier), then   *)
(* time the oracle vs. Core.generate per dialect.                      *)
(* Emits BENCH_e21.json.                                               *)
(* ------------------------------------------------------------------ *)

type e21_row = {
  e21_dialect : string;
  e21_cold_ms : float;
  e21_family_ms : float;
  e21_speedup : float;
}

let e21_render (g : Core.generated) =
  ( Fmt.str "%a" Grammar.Cfg.pp g.Core.grammar,
    g.Core.tokens,
    g.Core.sequence,
    Fmt.str "%a" Parser_gen.Engine.pp_summary (Core.dispatch_summary g) )

let e21_generate name how =
  let d, _ = dialect name in
  let result =
    match how with
    | `Cold -> Oracle.Cold.generate_dialect d
    | `Family -> Core.generate_dialect d
  in
  match result with
  | Ok g -> g
  | Error e -> Fmt.failwith "e21 %s: %a" name Core.pp_error e

(* Best-of-[repeats] wall time, so one unlucky GC pause doesn't decide a
   headline ratio. *)
let e21_time ~repeats f =
  let rec go best i =
    if i = 0 then best
    else begin
      let t0 = now () in
      ignore (Sys.opaque_identity (f ()));
      go (min best ((now () -. t0) *. 1e3)) (i - 1)
    end
  in
  go infinity (max 1 repeats)

let e21_row ~repeats name =
  (* The hard gate first: the family product must render byte-identically
     to the cold product (grammar, token set, composition sequence,
     dispatch classification). *)
  if e21_render (e21_generate name `Cold) <> e21_render (e21_generate name `Family)
  then Fmt.failwith "e21 %s: family product differs from cold pipeline" name;
  let cold = e21_time ~repeats (fun () -> e21_generate name `Cold) in
  let family = e21_time ~repeats (fun () -> e21_generate name `Family) in
  {
    e21_dialect = name;
    e21_cold_ms = cold;
    e21_family_ms = family;
    e21_speedup = cold /. family;
  }

let write_e21_json ~build_ms rows =
  let oc = open_out "BENCH_e21.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"experiment\": \"e21\",\n";
  p "  \"basis\": \"family artifact built once per process; per-dialect \
     Core.generate (mask/replay + interned LL(k) classification) vs the \
     cold compose+generate test oracle, best of 3\",\n";
  p "  \"family_build_ms\": %.2f,\n" build_ms;
  p "  \"rows\": [\n";
  List.iteri
    (fun i row ->
      p
        "    {\"dialect\": %S, \"cold_ms\": %.2f, \"family_ms\": %.2f, \
         \"speedup\": %.1f}%s\n"
        row.e21_dialect row.e21_cold_ms row.e21_family_ms row.e21_speedup
        (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ]\n}\n";
  close_out oc

let report_e21 ?(smoke = false) () =
  pf "\n== E21: family-based compilation (one artifact, cheap products) ==\n";
  let build_ms =
    e21_time ~repeats:(if smoke then 1 else 3) (fun () ->
        Family.build ~start:Sql.Model.start_symbol Sql.Model.model
          Sql.Model.registry)
  in
  ignore (Core.family ());
  let names =
    if smoke then [ "embedded"; "analytics" ]
    else
      List.map
        (fun ((d : Dialects.Dialect.t), _) -> d.name)
        generated_dialects
  in
  let repeats = if smoke then 1 else 3 in
  let rows = List.map (e21_row ~repeats) names in
  pf "family build: %.2f ms (shared by every product)\n" build_ms;
  pf "%-10s %12s %12s %9s\n" "dialect" "cold ms" "family ms" "speedup";
  List.iter
    (fun row ->
      pf "%-10s %12.2f %12.2f %8.1fx\n" row.e21_dialect row.e21_cold_ms
        row.e21_family_ms row.e21_speedup)
    rows;
  pf "(every Core.generate product gated byte-identical to the cold oracle)\n";
  if not smoke then begin
    write_e21_json ~build_ms rows;
    pf "(wrote BENCH_e21.json)\n"
  end

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
  (* `bench/main.exe e15` (or any experiment name below) runs just that
     report; no argument runs the full harness. *)
  match if Array.length Sys.argv > 1 then Some Sys.argv.(1) else None with
  | Some "e1" -> report_e1 ()
  | Some "e6" -> report_e6 ()
  | Some "e7" ->
    report_e7 ();
    report_e7_sweep ()
  | Some "e14" -> report_e14 ()
  | Some "e15" -> report_e15 ()
  | Some "e15-smoke" -> report_e15_smoke ()
  | Some "e16" -> report_e16 ()
  | Some "e16-smoke" ->
    (* Reduced E16 wired into `dune runtest`: exercises the domain-sharded
       batch path end-to-end without timing-dependent assertions. *)
    report_e16 ~smoke:true ()
  | Some "e17" -> report_e17 ()
  | Some "e17-smoke" -> report_e17 ~smoke:true ()
  | Some "e18" -> report_e18 ()
  | Some "e18-smoke" -> report_e18 ~smoke:true ()
  | Some "e19" -> report_e19 ()
  | Some "e19-smoke" -> report_e19 ~smoke:true ()
  | Some "e21" -> report_e21 ()
  | Some "e21-smoke" -> report_e21 ~smoke:true ()
  | Some other ->
    Fmt.failwith
      "unknown experiment %S (try e1 e6 e7 e14 e15 e16 e17 e18 e19 e21)"
      other
  | None ->
    report_e1 ();
    report_e6 ();
    report_e7 ();
    report_e7_sweep ();
    report_e14 ();
    report_e15 ();
    report_e16 ();
    report_e17 ();
    report_e18 ();
    report_e19 ();
    report_e21 ();
    pf "\n== E8-E13: timed series ==\n";
    run_benchmarks
      (bench_e8 @ bench_e9 @ bench_e10 @ bench_e11 @ bench_e12 @ bench_e13)

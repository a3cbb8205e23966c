(* Differential gate for generation through the family artifact.

   {!Core.generate} instantiates a configuration from the process-wide
   family artifact (presence-condition mask/replay) and classifies its
   choice points with the interned LL(k) analysis. Its contract is
   identity with the cold pipeline kept in the test oracle
   ({!Oracle.Cold.generate}: compose the configuration directly, classify
   with the string-based analysis): same composed grammar, token set and
   composition sequence, the same dispatch classification, and the same
   parse results — CSTs leaf-for-leaf on acceptance, furthest-failure
   errors field-for-field on rejection — on the shipped corpora and on
   grammar-sampled sentences. Invalid or incoherent selections must be
   rejected with the same error. This suite enforces that contract for
   all six shipped dialects, for a pool of random valid configurations
   and for unrepaired random selections, and checks that invalid
   configurations are rejected by validation before any masking work
   happens. *)

let check_bool = Alcotest.(check bool)

let ebnf (g : Core.generated) = Fmt.str "%a" Grammar.Cfg.pp g.Core.grammar

let summary (g : Core.generated) =
  Fmt.str "%a" Parser_gen.Engine.pp_summary (Core.dispatch_summary g)

let cold_generate ~label config =
  match Oracle.Cold.generate ~label config with
  | Ok g -> g
  | Error e -> Alcotest.failf "cold generate %s: %a" label Core.pp_error e

let family_generate ~label config =
  match Core.generate ~label config with
  | Ok g -> g
  | Error e -> Alcotest.failf "generate %s: %a" label Core.pp_error e

(* Full structural equality of end-to-end parse results: CSTs
   leaf-for-leaf, errors (lexical or syntactic) field-for-field. *)
let result_testable =
  Alcotest.testable
    (fun ppf -> function
      | Ok cst -> Fmt.pf ppf "Ok %a" Parser_gen.Cst.pp cst
      | Error e -> Fmt.pf ppf "Error (%a)" Core.pp_error e)
    (fun a b ->
      match (a, b) with
      | Ok c1, Ok c2 -> c1 = c2
      | Error e1, Error e2 -> e1 = e2
      | _ -> false)

let check_identical ~label ~statements cold fam =
  Alcotest.(check string) (label ^ ": composed grammar") (ebnf cold) (ebnf fam);
  check_bool (label ^ ": token set") true (cold.Core.tokens = fam.Core.tokens);
  Alcotest.(check (list string))
    (label ^ ": composition sequence")
    cold.Core.sequence fam.Core.sequence;
  Alcotest.(check string)
    (label ^ ": dispatch classification")
    (summary cold) (summary fam);
  List.iter
    (fun sql ->
      Alcotest.check result_testable
        (Printf.sprintf "%s: parse %S" label sql)
        (Core.parse_cst cold sql) (Core.parse_cst fam sql))
    statements

let corpus_for name =
  let static =
    match name with
    | "minimal" -> Corpus.minimal_accept @ Corpus.minimal_reject
    | "scql" -> Corpus.scql_accept @ Corpus.scql_reject
    | "tinysql" -> Corpus.tinysql_accept @ Corpus.tinysql_reject
    | "embedded" -> Corpus.embedded_accept @ Corpus.embedded_reject
    | "analytics" -> Corpus.analytics_accept @ Corpus.analytics_reject
    | _ -> Corpus.full_accept
  in
  static @ Corpus.always_reject

let test_dialects_identical () =
  List.iter
    (fun (d : Dialects.Dialect.t) ->
      let name = d.Dialects.Dialect.name in
      let cold = cold_generate ~label:name d.Dialects.Dialect.config in
      let fam = family_generate ~label:name d.Dialects.Dialect.config in
      let statements =
        corpus_for name
        @ Service.Sentences.sample ~count:25
            ~seed:(7817 + (Hashtbl.hash name mod 1000))
            cold
      in
      check_identical ~label:name ~statements cold fam)
    Dialects.Dialect.all

(* Random valid configurations: tree samples closed under requires, with
   OR/ALT-group violations repaired by selecting the group's first member
   (the e7 sweep's repair), then filtered through validate. *)
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
              match
                Feature.Tree.find Sql.Model.model.Feature.Model.concept parent
              with
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

let random_valid_configs ~want =
  let rec draw acc i =
    if List.length acc >= want || i >= 200 then List.rev acc
    else begin
      let config = repair (Feature.Config.sample Sql.Model.model ~seed:((i * 37) + 1)) 8 in
      if
        Feature.Config.is_valid Sql.Model.model config
        && not (List.mem config acc)
      then draw (config :: acc) (i + 1)
      else draw acc (i + 1)
    end
  in
  draw [] 0

let test_random_configs_identical () =
  let configs = random_valid_configs ~want:20 in
  check_bool "drew at least 20 valid configurations" true
    (List.length configs >= 20);
  List.iteri
    (fun i config ->
      let label = Printf.sprintf "sample-%d" i in
      let cold = cold_generate ~label config in
      let fam = family_generate ~label config in
      let statements =
        Service.Sentences.sample ~count:8 ~seed:(2833 + i) cold
        @ Corpus.always_reject
      in
      check_identical ~label ~statements cold fam)
    configs

let test_invalid_config_rejected_before_masking () =
  let fam = Core.family () in
  let before = (Family.stats fam).Family.instantiations in
  let invalid = Feature.Config.of_names [ "Where" ] in
  (match Family.instantiate fam invalid with
  | Error (Compose.Composer.Invalid_configuration _) -> ()
  | Error e ->
    Alcotest.failf "unexpected error: %a" Compose.Composer.pp_error e
  | Ok _ -> Alcotest.fail "invalid config must be rejected");
  (match Core.generate invalid with
  | Error (Core.Compose_error (Compose.Composer.Invalid_configuration _)) -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Core.pp_error e
  | Ok _ -> Alcotest.fail "invalid config must be rejected");
  let after = (Family.stats fam).Family.instantiations in
  Alcotest.(check int)
    "rejected before masking: instantiation counter unchanged" before after

(* Unrepaired random selections: tree samples closed under requires, most
   of them violating an OR/ALT group or a constraint. Production and the
   cold oracle must agree on every one — equal products, or equal
   composition errors. *)
let error_kind = function
  | Compose.Composer.Invalid_configuration _ -> "invalid configuration"
  | Compose.Composer.Token_conflict _ -> "token conflict"
  | Compose.Composer.Incoherent_grammar _ -> "incoherent grammar"

let test_error_parity () =
  let configs =
    List.sort_uniq compare
      (List.init 40 (fun i ->
           Feature.Config.sample Sql.Model.model ~seed:((i * 53) + 11)))
  in
  let kinds = Hashtbl.create 4 in
  List.iteri
    (fun i config ->
      let label = Printf.sprintf "unrepaired-%d" i in
      match (Core.generate ~label config, Oracle.Cold.generate ~label config) with
      | Ok fam, Ok cold ->
        Hashtbl.replace kinds "ok" ();
        check_identical ~label ~statements:Corpus.always_reject cold fam
      | Error (Core.Compose_error e), Error (Core.Compose_error e') ->
        Hashtbl.replace kinds (error_kind e) ();
        Alcotest.(check string)
          (label ^ ": error message")
          (Fmt.str "%a" Compose.Composer.pp_error e')
          (Fmt.str "%a" Compose.Composer.pp_error e);
        check_bool (label ^ ": error value") true (e = e')
      | fam, cold ->
        let show = function
          | Ok _ -> "Ok"
          | Error e -> Fmt.str "Error (%a)" Core.pp_error e
        in
        Alcotest.failf "%s: generate gave %s, cold gave %s" label (show fam)
          (show cold))
    configs;
  List.iter
    (fun kind -> check_bool ("drew a selection giving " ^ kind) true
        (Hashtbl.mem kinds kind))
    [ "ok"; "invalid configuration" ]

(* Valid SQL selections always compose coherently, so token conflicts and
   incoherent grammars need a hand-built line: two optional features
   define the keyword GO differently, and [ext] references a rule only
   [helper] defines. The family artifact's mask/replay must reject each
   selection exactly as composing it directly does, hints included. *)
let test_hand_built_errors () =
  let open Grammar.Builder in
  let module T = Feature.Tree in
  let concept =
    T.feature "root"
      [
        T.mandatory (T.leaf "base");
        T.optional (T.leaf "kw_a");
        T.optional (T.leaf "kw_b");
        T.optional (T.leaf "ext");
        T.optional (T.leaf "helper");
      ]
  in
  let model = Feature.Model.make concept in
  let fragment feature ?tokens rules =
    Compose.Fragment.make ~feature ?tokens rules
  in
  let registry =
    Compose.Fragment.registry
      [
        fragment "base"
          ~tokens:[ ("IDENT", Lexing_gen.Spec.Class Lexing_gen.Spec.Identifier) ]
          [ rule "s" [ [ t "IDENT" ] ] ];
        fragment "kw_a"
          ~tokens:[ ("GO", Lexing_gen.Spec.Keyword "GO") ]
          [ rule "s" [ [ t "GO"; t "IDENT" ] ] ];
        fragment "kw_b"
          ~tokens:[ ("GO", Lexing_gen.Spec.Punct "go!") ]
          [ rule "s" [ [ t "GO" ] ] ];
        fragment "ext" [ rule "s" [ [ nt "more" ] ] ];
        fragment "helper" [ rule "more" [ [ t "IDENT"; t "IDENT" ] ] ];
      ]
  in
  let fam = Family.build ~start:"s" model registry in
  let kinds = Hashtbl.create 4 in
  List.iter
    (fun names ->
      let label = String.concat "+" names in
      let config = Feature.Config.of_names names in
      match
        ( Family.instantiate fam config,
          Oracle.Cold.compose ~start:"s" model registry config )
      with
      | Ok f, Ok c ->
        Hashtbl.replace kinds "ok" ();
        Alcotest.(check string)
          (label ^ ": composed grammar")
          (Fmt.str "%a" Grammar.Cfg.pp c.Compose.Composer.grammar)
          (Fmt.str "%a" Grammar.Cfg.pp f.Compose.Composer.grammar);
        check_bool (label ^ ": token set") true
          (c.Compose.Composer.tokens = f.Compose.Composer.tokens);
        Alcotest.(check (list string))
          (label ^ ": composition sequence")
          c.Compose.Composer.sequence f.Compose.Composer.sequence
      | Error e, Error e' ->
        Hashtbl.replace kinds (error_kind e) ();
        Alcotest.(check string)
          (label ^ ": error message")
          (Fmt.str "%a" Compose.Composer.pp_error e')
          (Fmt.str "%a" Compose.Composer.pp_error e);
        check_bool (label ^ ": error value") true (e = e')
      | Ok _, Error e ->
        Alcotest.failf "%s: family accepted, compose gave %a" label
          Compose.Composer.pp_error e
      | Error e, Ok _ ->
        Alcotest.failf "%s: compose accepted, family gave %a" label
          Compose.Composer.pp_error e)
    [
      [ "root"; "base" ];
      [ "root"; "base"; "kw_a"; "kw_b" ];
      [ "root"; "base"; "ext" ];
      [ "root"; "base"; "ext"; "helper"; "kw_b" ];
      [ "root"; "ext" ];
    ];
  List.iter
    (fun kind -> check_bool ("covered: " ^ kind) true (Hashtbl.mem kinds kind))
    [ "ok"; "invalid configuration"; "token conflict"; "incoherent grammar" ]

let test_family_stats_shape () =
  ignore (family_generate ~label:"tinysql" Dialects.Dialect.tinysql.Dialects.Dialect.config);
  let s = Family.stats (Core.family ()) in
  check_bool "artifact has rules" true (s.Family.rules > 0);
  check_bool "artifact has tokens" true (s.Family.tokens > 0);
  check_bool "artifact size recorded" true (s.Family.size_ints > 0);
  check_bool "instantiations counted" true (s.Family.instantiations > 0);
  check_bool "core fragments within fragments" true
    (s.Family.core_fragments <= s.Family.fragments)

let suite =
  [
    Alcotest.test_case "six dialects: family products identical to cold" `Slow
      test_dialects_identical;
    Alcotest.test_case "random valid configs: family identical to cold" `Slow
      test_random_configs_identical;
    Alcotest.test_case "unrepaired random configs: same products or errors"
      `Slow test_error_parity;
    Alcotest.test_case "hand-built line: same composition errors" `Quick
      test_hand_built_errors;
    Alcotest.test_case "invalid config rejected before masking" `Quick
      test_invalid_config_rejected_before_masking;
    Alcotest.test_case "family stats shape" `Quick test_family_stats_shape;
  ]

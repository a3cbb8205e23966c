let regions =
  [
    Features_lexical.region;
    Features_expr.region;
    Features_query.region;
    Features_pred.region;
    Features_types.region;
    Features_dml.region;
    Features_ddl.region;
    Features_dcl.region;
    Features_txn.region;
    Features_ext.region;
  ]

let concept =
  Feature.Tree.feature "SQL:2003" (List.map (fun r -> r.Def.subtree) regions)

let model =
  Feature.Model.make
    ~constraints:(List.concat_map (fun r -> r.Def.constraints) regions)
    concept

let registry =
  Compose.Fragment.registry (List.concat_map (fun r -> r.Def.fragments) regions)

let start_symbol = "sql_statement"

let diagrams =
  let names =
    "SQL:2003" :: List.concat_map (fun r -> r.Def.diagram_names) regions
  in
  List.filter_map
    (fun name ->
      Option.map (fun tree -> (name, tree)) (Feature.Tree.find concept name))
    names

let diagram name = List.assoc_opt name diagrams

type stats = {
  features_in_model : int;
  diagram_count : int;
  features_across_diagrams : int;
  constraint_count : int;
}

let stats =
  {
    features_in_model = Feature.Tree.feature_count concept;
    diagram_count = List.length diagrams;
    features_across_diagrams =
      List.fold_left
        (fun n (_, tree) -> n + Feature.Tree.feature_count tree)
        0 diagrams;
    constraint_count = List.length model.Feature.Model.constraints;
  }

let fragment_rules =
  List.map
    (fun (f : Compose.Fragment.t) -> (f.Compose.Fragment.feature, f.Compose.Fragment.rules))
    (Compose.Fragment.fragments registry)

let close config = Feature.Config.close model config
let validate config = Feature.Config.validate model config

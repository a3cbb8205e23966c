open Sql_ast

module Rows = Parser_gen.Rows

type error = {
  construct : string;
  message : string;
}

let pp_error ppf e = Fmt.pf ppf "cannot lower <%s>: %s" e.construct e.message

exception Lower_error of error

(* One lowering run: the tree it reads, that tree's arrays, read in place,
   and the ordinal of the last dynamic parameter marker, assigned in
   lexical order within the run. *)
type cx = {
  tree : Rows.tree;
  rows : Rows.reader;
  mutable parameters : int;
}

let next_parameter cx =
  cx.parameters <- cx.parameters + 1;
  cx.parameters

let fail construct fmt =
  Printf.ksprintf (fun message -> raise (Lower_error { construct; message })) fmt

(* --- Tree navigation ------------------------------------------------------- *)

(* A node is a child code of the tree: a row id, or [lnot] of a leaf's
   token index. Children are found by label over the node's children
   range; a label the product lacks simply matches nothing. The arrays
   are read here, in place ({!Rows.reader}). *)

let label cx t =
  let r = cx.rows in
  if t >= 0 then r.names.(r.data.(4 * t)) else r.kind_names.(r.kind_ids.(lnot t))

(* The range of [t]'s children in [kids]: empty for a leaf. *)
let kids_start cx t = if t >= 0 then cx.rows.data.((4 * t) + 1) else 0
let kid_count cx t = if t >= 0 then cx.rows.data.((4 * t) + 2) else 0

(* No child: codes are row ids or [lnot] of a token index, never this. *)
let absent = min_int

(* The index of the first child labelled [l] in [kids.(k .. stop - 1)],
   or [stop]. *)
let rec scan cx l k stop =
  if k >= stop || String.equal (label cx cx.rows.kids.(k)) l then k
  else scan cx l (k + 1) stop

(* The first child of [t] labelled [l], or [absent]. *)
let find cx t l =
  let k = kids_start cx t in
  let stop = k + kid_count cx t in
  let j = scan cx l k stop in
  if j = stop then absent else cx.rows.kids.(j)

let child_exn cx t l =
  let c = find cx t l in
  if c = absent then fail (label cx t) "missing child <%s>" l else c

let has cx t l = find cx t l <> absent

(* [f] of the first child labelled [l], if there is one. *)
let opt cx t l f =
  let c = find cx t l in
  if c = absent then None else Some (f c)

(* [f] of the first child labelled [l], or [default] without one. *)
let with_child cx t l ~default f =
  let c = find cx t l in
  if c = absent then default else f c

let[@tail_mod_cons] rec map_from cx l f k stop =
  let k = scan cx l k stop in
  if k >= stop then []
  else
    let v = f cx.rows.kids.(k) in
    v :: map_from cx l f (k + 1) stop

(* [f] over the children labelled [l], in order. *)
let map_kids cx t l f =
  let k = kids_start cx t in
  map_from cx l f k (k + kid_count cx t)

let kids cx t l = map_kids cx t l Fun.id

let rec fold_from cx l f acc k stop =
  let k = scan cx l k stop in
  if k >= stop then acc else fold_from cx l f (f acc cx.rows.kids.(k)) (k + 1) stop

(* [f] folded left over the children labelled [l]. *)
let fold_kids cx t l f acc =
  let k = kids_start cx t in
  fold_from cx l f acc k (k + kid_count cx t)

(* The [i]th child, [i] below [kid_count]. *)
let nth cx t i = cx.rows.kids.(kids_start cx t + i)

(* The child of a node that has exactly one, or [absent]. *)
let only cx t = if kid_count cx t = 1 then nth cx t 0 else absent

let text cx t =
  if t >= 0 then fail (label cx t) "expected a token" else Rows.text cx.tree t

(* An <identifier> node holds an IDENT or QUOTED_IDENT leaf. *)
let identifier cx t =
  let leaf = only cx t in
  if leaf = absent then fail (label cx t) "malformed identifier" else text cx leaf

let column_name cx t = identifier cx (child_exn cx t "identifier")

(* <table_name> : identifier [ PERIOD identifier ] *)
let table_name cx t =
  match kids cx t "identifier" with
  | [ single ] -> Ast.simple_name (identifier cx single)
  | [ qualifier; name ] ->
    { Ast.qualifier = Some (identifier cx qualifier); name = identifier cx name }
  | _ -> fail "table_name" "malformed qualified name"

let column_name_list cx t = map_kids cx t "column_name" (column_name cx)

let int_of_leaf cx t = int_of_string (text cx t)

(* --- Expressions --------------------------------------------------------- *)

let rec value_expression cx t : Ast.expr =
  numeric_value_expression cx (child_exn cx t "numeric_value_expression")

(* <numeric_value_expression> : term ( additive_tail )* where each tail is
   PLUS/MINUS/CONCAT followed by a term. Folds left-associatively. *)
and numeric_value_expression cx t =
  let first = term cx (child_exn cx t "term") in
  fold_kids cx t "additive_tail"
    (fun acc tail ->
      let rhs = term cx (child_exn cx tail "term") in
      let op =
        if has cx tail "PLUS" then Ast.Add
        else if has cx tail "MINUS" then Ast.Sub
        else if has cx tail "CONCAT" then Ast.Concat
        else fail "additive_tail" "unknown operator"
      in
      Ast.Binop (op, acc, rhs))
    first

and term cx t =
  let first = factor cx (child_exn cx t "factor") in
  fold_kids cx t "multiplicative_tail"
    (fun acc tail ->
      let rhs = factor cx (child_exn cx tail "factor") in
      let op =
        if has cx tail "ASTERISK" then Ast.Mul
        else if has cx tail "SOLIDUS" then Ast.Div
        else fail "multiplicative_tail" "unknown operator"
      in
      Ast.Binop (op, acc, rhs))
    first

and factor cx t =
  let prim = primary cx (child_exn cx t "value_expression_primary") in
  let sign_node = find cx t "sign" in
  if sign_node = absent then prim
  else
    let sign = if has cx sign_node "MINUS" then Ast.S_minus else Ast.S_plus in
    Ast.Unary (sign, prim)

and primary cx t =
  if kid_count cx t = 0 then fail "value_expression_primary" "empty"
  else
    let first = nth cx t 0 in
    match label cx first with
    | "column_reference" -> column_reference cx first
    | "literal" -> Ast.Lit (literal cx first)
    | "LPAREN" -> value_expression cx (child_exn cx t "value_expression")
    | "subquery" -> Ast.Scalar_subquery (subquery cx first)
    | "case_expression" -> case_expression cx first
    | "cast_specification" ->
      let c = first in
      Ast.Cast
        (value_expression cx (child_exn cx c "value_expression"),
         data_type cx (child_exn cx c "data_type"))
    | "set_function_specification" -> set_function cx first
    | "string_function" -> string_function cx first
    | "numeric_function" -> numeric_function cx first
    | "datetime_value_function" -> Ast.Call (text_of_single cx first, [])
    | "user_identity_function" -> Ast.Call (text_of_single cx first, [])
    | "function_call" -> function_call cx first
    | "window_function" -> window_function cx first
    | "next_value_expression" ->
      Ast.Next_value (identifier cx (child_exn cx first "identifier"))
    | "QUESTION" -> Ast.Parameter (next_parameter cx)
    | other -> fail "value_expression_primary" "unexpected child <%s>" other

and text_of_single cx t =
  let leaf = only cx t in
  if leaf = absent then fail (label cx t) "expected a single keyword"
  else String.uppercase_ascii (text cx leaf)

and column_reference cx t =
  let name = find cx t "column_name" in
  match kids cx t "identifier" with
  | [ qualifier ] when name <> absent ->
    Ast.Column (Some (identifier cx qualifier), column_name cx name)
  | [] when name <> absent -> Ast.Column (None, column_name cx name)
  | _ -> fail "column_reference" "malformed"

and literal cx t =
  let leaf = only cx t in
  if leaf = absent then fail "literal" "malformed"
  else
    match label cx leaf with
    | "UNSIGNED_INTEGER" -> Ast.L_integer (int_of_leaf cx leaf)
    | "DECIMAL_LITERAL" -> Ast.L_decimal (float_of_string (text cx leaf))
    | "STRING_LITERAL" -> Ast.L_string (text cx leaf)
    | "TRUE" -> Ast.L_bool true
    | "FALSE" -> Ast.L_bool false
    | "NULL" -> Ast.L_null
    | "datetime_literal" -> datetime_literal cx leaf
    | "interval_literal" ->
      Ast.L_interval
        ( text cx (child_exn cx leaf "STRING_LITERAL"),
          interval_qualifier cx (child_exn cx leaf "interval_qualifier") )
    | other -> fail "literal" "unexpected token %s" other

and interval_qualifier cx t : Ast.interval_qualifier =
  match kids cx t "datetime_field" with
  | [ only ] -> { Ast.from_field = text_of_single cx only; to_field = None }
  | [ from_f; to_f ] ->
    {
      Ast.from_field = text_of_single cx from_f;
      to_field = Some (text_of_single cx to_f);
    }
  | _ -> fail "interval_qualifier" "malformed"

and datetime_literal cx t =
  let s = text cx (child_exn cx t "STRING_LITERAL") in
  if has cx t "DATE" then Ast.L_date s
  else if has cx t "TIME" then Ast.L_time s
  else if has cx t "TIMESTAMP" then Ast.L_timestamp s
  else fail "datetime_literal" "unknown kind"

and case_expression cx t =
  if has cx t "NULLIF" then
    Ast.Call ("NULLIF", map_kids cx t "value_expression" (value_expression cx))
  else if has cx t "COALESCE" then
    Ast.Call ("COALESCE", map_kids cx t "value_expression" (value_expression cx))
  else if has cx t "searched_when_clause" then
    Ast.Case_searched
      {
        branches =
          map_kids cx t "searched_when_clause" (fun w ->
              ( search_condition cx (child_exn cx w "search_condition"),
                value_expression cx (child_exn cx w "value_expression") ));
        else_ = else_clause cx t;
      }
  else
    let operand = value_expression cx (child_exn cx t "value_expression") in
    Ast.Case_simple
      {
        operand;
        branches =
          map_kids cx t "simple_when_clause" (fun w ->
              match kids cx w "value_expression" with
              | [ when_e; then_e ] ->
                (value_expression cx when_e, value_expression cx then_e)
              | _ -> fail "simple_when_clause" "malformed");
        else_ = else_clause cx t;
      }

and else_clause cx t =
  opt cx t "else_clause" (fun e ->
      value_expression cx (child_exn cx e "value_expression"))

and set_function cx t =
  if has cx t "ASTERISK" then
    Ast.Aggregate { func = Ast.F_count; agg_quantifier = None; arg = Ast.A_star }
  else
    let func =
      match text_of_single cx (child_exn cx t "set_function_type") with
      | "COUNT" -> Ast.F_count
      | "SUM" -> Ast.F_sum
      | "AVG" -> Ast.F_avg
      | "MIN" -> Ast.F_min
      | "MAX" -> Ast.F_max
      | "EVERY" -> Ast.F_every
      | "ANY" -> Ast.F_any
      | other -> fail "set_function_type" "unknown function %s" other
    in
    Ast.Aggregate
      {
        func;
        agg_quantifier = opt cx t "set_quantifier" (set_quantifier cx);
        arg = Ast.A_expr (value_expression cx (child_exn cx t "value_expression"));
      }

and set_quantifier cx t =
  if has cx t "DISTINCT" then Ast.Distinct else Ast.All

and string_function cx t =
  let args () = map_kids cx t "value_expression" (value_expression cx) in
  if has cx t "UPPER" then Ast.Call ("UPPER", args ())
  else if has cx t "LOWER" then Ast.Call ("LOWER", args ())
  else if has cx t "CHAR_LENGTH" || has cx t "CHARACTER_LENGTH" then
    Ast.Call ("CHAR_LENGTH", args ())
  else if has cx t "SUBSTRING" then
    (match args () with
     | [ arg; from_ ] -> Ast.Substring { arg; from_; for_ = None }
     | [ arg; from_; for_ ] -> Ast.Substring { arg; from_; for_ = Some for_ }
     | _ -> fail "string_function" "malformed SUBSTRING")
  else if has cx t "POSITION" then
    (match args () with
     | [ needle; haystack ] -> Ast.Position { needle; haystack }
     | _ -> fail "string_function" "malformed POSITION")
  else if has cx t "TRIM" then trim cx (child_exn cx t "trim_operands")
  else if has cx t "OCTET_LENGTH" then Ast.Call ("OCTET_LENGTH", args ())
  else if has cx t "OVERLAY" then
    (match args () with
     | [ arg; placing; from_ ] -> Ast.Overlay { arg; placing; from_; for_ = None }
     | [ arg; placing; from_; for_ ] ->
       Ast.Overlay { arg; placing; from_; for_ = Some for_ }
     | _ -> fail "string_function" "malformed OVERLAY")
  else fail "string_function" "unknown function"

and trim cx t =
  let side =
    opt cx t "trim_specification" (fun s ->
        if has cx s "LEADING" then Ast.Trim_leading
        else if has cx s "TRAILING" then Ast.Trim_trailing
        else Ast.Trim_both)
  in
  match kids cx t "value_expression" with
  | [ arg ] -> Ast.Trim { side; removed = None; arg = value_expression cx arg }
  | [ removed; arg ] ->
    Ast.Trim
      {
        side;
        removed = Some (value_expression cx removed);
        arg = value_expression cx arg;
      }
  | _ -> fail "trim_operands" "malformed"

and numeric_function cx t =
  let args () = map_kids cx t "value_expression" (value_expression cx) in
  if has cx t "ABS" then Ast.Call ("ABS", args ())
  else if has cx t "MOD" then Ast.Call ("MOD", args ())
  else if has cx t "EXTRACT" then
    Ast.Extract
      {
        field = text_of_single cx (child_exn cx t "extract_field");
        arg = value_expression cx (child_exn cx t "value_expression");
      }
  else fail "numeric_function" "unknown function"

and window_function cx t =
  let spec = child_exn cx t "window_specification" in
  let lists = kids cx spec "window_column_list" in
  let exprs_of node = map_kids cx node "value_expression" (value_expression cx) in
  let partition_by, win_order_by =
    (* Zero, one or two lists; disambiguate single lists by which keyword is
       present. *)
    match lists with
    | [] -> ([], [])
    | [ only ] ->
      if has cx spec "PARTITION" then (exprs_of only, []) else ([], exprs_of only)
    | [ p; o ] -> (exprs_of p, exprs_of o)
    | _ -> fail "window_specification" "malformed"
  in
  Ast.Window_call
    {
      wfunc =
        (let wft = child_exn cx t "window_function_type" in
         if kid_count cx wft = 0 then fail "window_function_type" "empty"
         else String.uppercase_ascii (text cx (nth cx wft 0)));
      partition_by;
      win_order_by;
    }

and function_call cx t =
  let name = identifier cx (child_exn cx t "identifier") in
  let args =
    with_child cx t "argument_list" ~default:[] (fun al ->
        map_kids cx al "value_expression" (value_expression cx))
  in
  Ast.Call (name, args)

and data_type cx t : Ast.data_type =
  let length () = opt cx t "UNSIGNED_INTEGER" (int_of_leaf cx) in
  if has cx t "INTEGER" || has cx t "INT" then Ast.T_integer
  else if has cx t "SMALLINT" then Ast.T_smallint
  else if has cx t "BIGINT" then Ast.T_bigint
  else if has cx t "DECIMAL" || has cx t "DEC" || has cx t "NUMERIC" then
    (match kids cx t "UNSIGNED_INTEGER" with
     | [] -> Ast.T_decimal None
     | [ p ] -> Ast.T_decimal (Some (int_of_leaf cx p, None))
     | [ p; s ] -> Ast.T_decimal (Some (int_of_leaf cx p, Some (int_of_leaf cx s)))
     | _ -> fail "data_type" "malformed DECIMAL")
  else if has cx t "FLOAT" then Ast.T_float
  else if has cx t "REAL" then Ast.T_real
  else if has cx t "DOUBLE" then Ast.T_double
  else if has cx t "INTERVAL" then
    Ast.T_interval (interval_qualifier cx (child_exn cx t "interval_qualifier"))
  else if has cx t "VARCHAR" || has cx t "VARYING" then Ast.T_varchar (length ())
  else if has cx t "CHARACTER" || has cx t "CHAR" then Ast.T_char (length ())
  else if has cx t "BOOLEAN" then Ast.T_boolean
  else if has cx t "DATE" then Ast.T_date
  else if has cx t "TIME" then Ast.T_time
  else if has cx t "TIMESTAMP" then Ast.T_timestamp
  else fail "data_type" "unknown type"

(* --- Conditions ------------------------------------------------------------ *)

and search_condition cx t : Ast.cond =
  let terms = map_kids cx t "boolean_term" (boolean_term cx) in
  match terms with
  | [] -> fail "search_condition" "no boolean term"
  | first :: rest -> List.fold_left (fun acc c -> Ast.Or (acc, c)) first rest

and boolean_term cx t =
  let factors = map_kids cx t "boolean_factor" (boolean_factor cx) in
  match factors with
  | [] -> fail "boolean_term" "no boolean factor"
  | first :: rest -> List.fold_left (fun acc c -> Ast.And (acc, c)) first rest

and boolean_factor cx t =
  let test = boolean_test cx (child_exn cx t "boolean_test") in
  if has cx t "NOT" then Ast.Not test else test

and boolean_test cx t =
  let inner = boolean_primary cx (child_exn cx t "boolean_primary") in
  let tv = find cx t "truth_value" in
  if tv = absent then inner
  else
    let truth =
      if has cx tv "TRUE" then Ast.True
      else if has cx tv "FALSE" then Ast.False
      else Ast.Unknown
    in
    Ast.Is_truth { negated = has cx t "NOT"; arg = inner; truth }

and boolean_primary cx t =
  let only = only cx t in
  if only <> absent && String.equal (label cx only) "predicate" then
    predicate cx only
  else if only <> absent && String.equal (label cx only) "value_expression" then
    Ast.Bool_expr (value_expression cx only)
  else if has cx t "LPAREN" then
    search_condition cx (child_exn cx t "search_condition")
  else fail "boolean_primary" "malformed"

and predicate cx t : Ast.cond =
  if has cx t "EXISTS" then Ast.Exists (subquery cx (child_exn cx t "subquery"))
  else if has cx t "UNIQUE" then Ast.Unique (subquery cx (child_exn cx t "subquery"))
  else
    let lhs = value_expression cx (child_exn cx t "value_expression") in
    if kid_count cx t = 2 then predicate_tail cx lhs (nth cx t 1)
    else fail "predicate" "malformed"

and predicate_tail cx lhs tail =
  let negated = has cx tail "NOT" in
  match label cx tail with
  | "comparison_predicate_tail" ->
    let op = comp_op cx (child_exn cx tail "comp_op") in
    let q = find cx tail "comparison_quantifier" in
    if q <> absent then
      Ast.Quantified_comparison
        {
          op;
          lhs;
          quantifier = (if has cx q "ALL" then Ast.Q_all else Ast.Q_some);
          subquery = subquery cx (child_exn cx tail "subquery");
        }
    else
      Ast.Comparison
        (op, lhs, value_expression cx (child_exn cx tail "value_expression"))
  | "between_tail" ->
    (match kids cx tail "value_expression" with
     | [ low; high ] ->
       let symmetric =
         with_child cx tail "between_symmetry" ~default:false (fun s ->
             has cx s "SYMMETRIC")
       in
       Ast.Between
         {
           negated; symmetric; arg = lhs;
           low = value_expression cx low; high = value_expression cx high;
         }
     | _ -> fail "between_tail" "malformed")
  | "in_tail" ->
    let ipv = child_exn cx tail "in_predicate_value" in
    if has cx ipv "subquery" then
      Ast.In_subquery
        { negated; arg = lhs; subquery = subquery cx (child_exn cx ipv "subquery") }
    else
      Ast.In_list
        {
          negated;
          arg = lhs;
          values = map_kids cx ipv "value_expression" (value_expression cx);
        }
  | "like_tail" ->
    (match kids cx tail "value_expression" with
     | [ pattern ] ->
       Ast.Like
         { negated; arg = lhs; pattern = value_expression cx pattern; escape = None }
     | [ pattern; escape ] ->
       Ast.Like
         {
           negated;
           arg = lhs;
           pattern = value_expression cx pattern;
           escape = Some (value_expression cx escape);
         }
     | _ -> fail "like_tail" "malformed")
  | "null_tail" -> Ast.Is_null { negated; arg = lhs }
  | "distinct_tail" ->
    Ast.Is_distinct_from
      {
        negated;
        lhs;
        rhs = value_expression cx (child_exn cx tail "value_expression");
      }
  | "overlaps_tail" ->
    Ast.Overlaps (lhs, value_expression cx (child_exn cx tail "value_expression"))
  | "similar_tail" ->
    Ast.Similar
      {
        negated;
        arg = lhs;
        pattern = value_expression cx (child_exn cx tail "value_expression");
      }
  | other -> fail "predicate" "unknown tail <%s>" other

and comp_op cx t =
  if has cx t "EQUALS" then Ast.Eq
  else if has cx t "NOT_EQUALS" then Ast.Neq
  else if has cx t "LESS_EQ" then Ast.Le
  else if has cx t "GREATER_EQ" then Ast.Ge
  else if has cx t "LESS" then Ast.Lt
  else if has cx t "GREATER" then Ast.Gt
  else fail "comp_op" "unknown operator"

(* --- Queries --------------------------------------------------------------- *)

and subquery cx t : Ast.query =
  Ast.query_of_body (query_expression_body cx (child_exn cx t "query_expression"))

and query_expression_body cx t : Ast.query_body =
  let first = query_term_body cx (child_exn cx t "query_term") in
  fold_kids cx t "set_op_tail"
    (fun acc tail ->
      let rhs = query_term_body cx (child_exn cx tail "query_term") in
      let op = if has cx tail "UNION" then Ast.Union else Ast.Except in
      let quantifier = opt cx tail "set_quantifier" (set_quantifier cx) in
      Ast.Set_operation
        {
          op; quantifier; corresponding = has cx tail "CORRESPONDING";
          lhs = acc; rhs;
        })
    first

and query_term_body cx t =
  let first = query_primary_body cx (child_exn cx t "query_primary") in
  fold_kids cx t "intersect_tail"
    (fun acc tail ->
      let rhs = query_primary_body cx (child_exn cx tail "query_primary") in
      let quantifier = opt cx tail "set_quantifier" (set_quantifier cx) in
      Ast.Set_operation
        {
          op = Ast.Intersect; quantifier;
          corresponding = has cx tail "CORRESPONDING"; lhs = acc; rhs;
        })
    first

and query_primary_body cx t =
  if has cx t "query_specification" then
    Ast.Select (query_specification cx (child_exn cx t "query_specification"))
  else if has cx t "LPAREN" then
    Ast.Paren_query
      (Ast.query_of_body
         (query_expression_body cx (child_exn cx t "query_expression")))
  else if has cx t "table_value_constructor" then
    let tvc = child_exn cx t "table_value_constructor" in
    Ast.Values (map_kids cx tvc "row_value" (row_value cx))
  else fail "query_primary" "malformed"

and row_value cx t = map_kids cx t "value_expression" (value_expression cx)

and query_specification cx t : Ast.select =
  let te = child_exn cx t "table_expression" in
  {
    Ast.select_quantifier = opt cx t "set_quantifier" (set_quantifier cx);
    projection = select_list cx (child_exn cx t "select_list");
    from = from_clause cx (child_exn cx te "from_clause");
    where =
      opt cx te "where_clause" (fun w ->
          search_condition cx (child_exn cx w "search_condition"));
    group_by =
      with_child cx te "group_by_clause" ~default:[] (fun g ->
          map_kids cx g "grouping_element" (grouping_element cx));
    having =
      opt cx te "having_clause" (fun h ->
          search_condition cx (child_exn cx h "search_condition"));
  }

and select_list cx t : Ast.select_item list =
  if has cx t "ASTERISK" then [ Ast.Star ]
  else map_kids cx t "select_sublist" (select_sublist cx)

and select_sublist cx t =
  if has cx t "ASTERISK" then
    Ast.Qualified_star (identifier cx (child_exn cx t "identifier"))
  else
    let dc = child_exn cx t "derived_column" in
    let alias =
      opt cx dc "as_clause" (fun a -> column_name cx (child_exn cx a "column_name"))
    in
    Ast.Expr_item (value_expression cx (child_exn cx dc "value_expression"), alias)

and grouping_element cx t : Ast.group_element =
  let column_list node =
    map_kids cx node "value_expression" (value_expression cx)
  in
  if has cx t "ROLLUP" then
    Ast.Rollup (column_list (child_exn cx t "grouping_column_list"))
  else if has cx t "CUBE" then
    Ast.Cube (column_list (child_exn cx t "grouping_column_list"))
  else if has cx t "GROUPING" then
    Ast.Grouping_sets
      (map_kids cx t "grouping_set" (fun gs ->
           column_list (child_exn cx gs "grouping_column_list")))
  else Ast.Group_expr (value_expression cx (child_exn cx t "value_expression"))

and from_clause cx t = map_kids cx t "table_reference" (table_reference cx)

and table_reference cx t : Ast.table_ref =
  let first = table_primary cx (child_exn cx t "table_primary") in
  fold_kids cx t "join_tail"
    (fun acc tail ->
      let rhs = table_primary cx (child_exn cx tail "table_primary") in
      let kind =
        if has cx tail "CROSS" then Ast.Cross
        else if has cx tail "NATURAL" then Ast.Natural
        else
          with_child cx tail "outer_join_type" ~default:Ast.Inner (fun ojt ->
              if has cx ojt "LEFT" then Ast.Left_outer
              else if has cx ojt "RIGHT" then Ast.Right_outer
              else Ast.Full_outer)
      in
      let condition =
        opt cx tail "join_specification" (fun js ->
            if has cx js "ON" then
              Ast.On (search_condition cx (child_exn cx js "search_condition"))
            else Ast.Using (column_name_list cx (child_exn cx js "column_name_list")))
      in
      Ast.Joined { lhs = acc; kind; rhs; condition })
    first

and correlation cx t : Ast.correlation =
  {
    Ast.alias = identifier cx (child_exn cx t "identifier");
    columns = with_child cx t "column_name_list" ~default:[] (column_name_list cx);
  }

and table_primary cx t : Ast.table_ref =
  if has cx t "subquery" then
    Ast.Derived_table
      ( subquery cx (child_exn cx t "subquery"),
        correlation cx (child_exn cx t "correlation_specification") )
  else
    Ast.Table
      ( table_name cx (child_exn cx t "table_name"),
        opt cx t "correlation_specification" (correlation cx) )

(* --- Statements ------------------------------------------------------------- *)

let sort_specification cx t : Ast.sort_spec =
  {
    Ast.sort_expr = value_expression cx (child_exn cx t "value_expression");
    descending =
      with_child cx t "ordering_specification" ~default:false (fun o ->
          has cx o "DESC");
    nulls_last = opt cx t "nulls_ordering" (fun n -> has cx n "LAST");
  }

let with_clause cx t : Ast.with_clause =
  {
    Ast.recursive = has cx t "RECURSIVE";
    ctes =
      map_kids cx t "with_list_element" (fun el ->
          {
            Ast.cte_name = identifier cx (child_exn cx el "identifier");
            cte_columns =
              with_child cx el "column_name_list" ~default:[] (column_name_list cx);
            cte_query = subquery cx (child_exn cx el "subquery");
          });
  }

let query_statement cx t : Ast.query =
  {
    Ast.with_ = opt cx t "with_clause" (with_clause cx);
    body = query_expression_body cx (child_exn cx t "query_expression");
    order_by =
      with_child cx t "order_by_clause" ~default:[] (fun ob ->
          map_kids cx ob "sort_specification" (sort_specification cx));
    fetch =
      opt cx t "fetch_clause" (fun f ->
          let n = int_of_leaf cx (child_exn cx f "UNSIGNED_INTEGER") in
          if has cx f "LIMIT" then Ast.Limit n else Ast.Fetch_first n);
    updatability =
      opt cx t "updatability_clause" (fun u ->
          if has cx u "READ" then Ast.For_read_only
          else
            Ast.For_update
              (with_child cx u "column_name_list" ~default:[] (column_name_list cx)));
    epoch =
      (let duration =
         opt cx t "epoch_clause" (fun e ->
             int_of_leaf cx (child_exn cx e "UNSIGNED_INTEGER"))
       and sample_period =
         opt cx t "sample_clause" (fun e ->
             int_of_leaf cx (child_exn cx e "UNSIGNED_INTEGER"))
       in
       match duration, sample_period with
       | None, None -> None
       | _ -> Some { Ast.duration; sample_period });
  }

let set_clause cx t : Ast.set_clause =
  let source = child_exn cx t "update_source" in
  {
    Ast.target = column_name cx (child_exn cx t "column_name");
    value =
      (if has cx source "DEFAULT" then None
       else Some (value_expression cx (child_exn cx source "value_expression")));
  }

let insert_column_list cx t =
  with_child cx t "insert_column_list" ~default:[] (fun icl ->
      column_name_list cx (child_exn cx icl "column_name_list"))

let insert_statement cx t : Ast.insert =
  let source = child_exn cx t "insert_source" in
  {
    Ast.table = table_name cx (child_exn cx t "table_name");
    columns = insert_column_list cx t;
    source =
      (if has cx source "DEFAULT" then Ast.Insert_defaults
       else
         let vc = find cx source "values_clause" in
         if vc <> absent then
           Ast.Insert_values (map_kids cx vc "row_value" (row_value cx))
         else
           Ast.Insert_query
             (Ast.query_of_body
                (query_expression_body cx (child_exn cx source "query_expression"))));
  }

let where_clause cx t =
  opt cx t "where_clause" (fun w ->
      search_condition cx (child_exn cx w "search_condition"))

let update_statement cx t : Ast.update =
  {
    Ast.table = table_name cx (child_exn cx t "table_name");
    assignments = map_kids cx t "set_clause" (set_clause cx);
    update_where = where_clause cx t;
  }

let delete_statement cx t : Ast.delete =
  {
    Ast.table = table_name cx (child_exn cx t "table_name");
    delete_where = where_clause cx t;
  }

let merge_statement cx t : Ast.merge =
  {
    Ast.target = table_name cx (child_exn cx t "table_name");
    target_alias =
      opt cx t "merge_correlation" (fun c ->
          identifier cx (child_exn cx c "identifier"));
    source = table_primary cx (child_exn cx t "table_primary");
    on = search_condition cx (child_exn cx t "search_condition");
    actions =
      map_kids cx t "merge_when_clause" (fun w ->
          if has cx w "MATCHED" && has cx w "NOT" then
            Ast.When_not_matched_insert
              (insert_column_list cx w, row_value cx (child_exn cx w "row_value"))
          else
            Ast.When_matched_update (map_kids cx w "set_clause" (set_clause cx)));
  }

let references_specification cx t : Ast.references_spec =
  (* The referential actions are inlined in the rule as
     [ ON DELETE <referential_action> ] [ ON UPDATE <referential_action> ];
     with both present the tree has two <referential_action> children in
     DELETE-then-UPDATE order, with one present the neighbouring DELETE /
     UPDATE keyword disambiguates. *)
  let ras = kids cx t "referential_action" in
  let lower_ra node =
    if has cx node "CASCADE" then Ast.Ra_cascade
    else if has cx node "RESTRICT" then Ast.Ra_restrict
    else if has cx node "NULL" then Ast.Ra_set_null
    else if has cx node "DEFAULT" then Ast.Ra_set_default
    else Ast.Ra_no_action
  in
  let on_delete, on_update =
    match ras, has cx t "DELETE", has cx t "UPDATE" with
    | [ d; u ], _, _ -> (Some (lower_ra d), Some (lower_ra u))
    | [ one ], true, false -> (Some (lower_ra one), None)
    | [ one ], false, true -> (None, Some (lower_ra one))
    | _, _, _ -> (None, None)
  in
  {
    Ast.ref_table = table_name cx (child_exn cx t "table_name");
    ref_columns = with_child cx t "column_name_list" ~default:[] (column_name_list cx);
    on_delete;
    on_update;
  }

let column_constraint cx t : Ast.column_constraint =
  if has cx t "NULL" && has cx t "NOT" then Ast.C_not_null
  else if has cx t "UNIQUE" then Ast.C_unique
  else if has cx t "PRIMARY" then Ast.C_primary_key
  else if has cx t "CHECK" then
    Ast.C_check (search_condition cx (child_exn cx t "search_condition"))
  else if has cx t "references_specification" then
    Ast.C_references
      (references_specification cx (child_exn cx t "references_specification"))
  else fail "column_constraint" "unknown constraint"

let column_definition cx t : Ast.column_def =
  {
    Ast.column = column_name cx (child_exn cx t "column_name");
    ty = data_type cx (child_exn cx t "data_type");
    default =
      opt cx t "default_clause" (fun d ->
          value_expression cx (child_exn cx d "value_expression"));
    constraints = map_kids cx t "column_constraint" (column_constraint cx);
  }

let table_constraint cx t : Ast.table_constraint_body =
  if has cx t "CHECK" then
    Ast.T_check (search_condition cx (child_exn cx t "search_condition"))
  else if has cx t "UNIQUE" then
    Ast.T_unique (column_name_list cx (child_exn cx t "column_name_list"))
  else if has cx t "PRIMARY" then
    Ast.T_primary_key (column_name_list cx (child_exn cx t "column_name_list"))
  else if has cx t "FOREIGN" then
    Ast.T_foreign_key
      ( column_name_list cx (child_exn cx t "column_name_list"),
        references_specification cx (child_exn cx t "references_specification") )
  else fail "table_constraint" "unknown constraint"

(* <table_constraint_definition> : [ CONSTRAINT identifier ] table_constraint *)
let table_constraint_definition cx t : Ast.table_constraint =
  {
    Ast.constraint_name = opt cx t "identifier" (identifier cx);
    body = table_constraint cx (child_exn cx t "table_constraint");
  }

let table_element cx t : Ast.table_element =
  let only = only cx t in
  if only <> absent && String.equal (label cx only) "column_definition" then
    Ast.Column_element (column_definition cx only)
  else if only <> absent && String.equal (label cx only) "table_constraint_definition"
  then Ast.Constraint_element (table_constraint_definition cx only)
  else fail "table_element" "malformed"

let create_table_statement cx t : Ast.create_table =
  {
    Ast.table_name = table_name cx (child_exn cx t "table_name");
    elements = map_kids cx t "table_element" (table_element cx);
  }

let create_view_statement cx t : Ast.create_view =
  {
    Ast.view_name = table_name cx (child_exn cx t "table_name");
    view_columns = with_child cx t "column_name_list" ~default:[] (column_name_list cx);
    view_query =
      Ast.query_of_body
        (query_expression_body cx (child_exn cx t "query_expression"));
    check_option = has cx t "WITH";
  }

let drop_behavior cx t : Ast.drop_behavior =
  if has cx t "CASCADE" then Ast.Cascade else Ast.Restrict

let drop_statement cx t : Ast.drop =
  let obj = child_exn cx t "drop_object" in
  {
    Ast.drop_kind = (if has cx obj "VIEW" then Ast.Drop_view else Ast.Drop_table);
    drop_name = table_name cx (child_exn cx obj "table_name");
    behavior = opt cx t "drop_behavior" (drop_behavior cx);
  }

let alter_table_statement cx t : Ast.alter_table =
  let action = child_exn cx t "alter_action" in
  let act =
    if has cx action "column_definition" then
      Ast.Add_column (column_definition cx (child_exn cx action "column_definition"))
    else if has cx action "table_constraint_definition" then
      Ast.Add_constraint
        (table_constraint_definition cx
           (child_exn cx action "table_constraint_definition"))
    else if has cx action "alter_column_action" then
      let aca = child_exn cx action "alter_column_action" in
      let col = column_name cx (child_exn cx action "column_name") in
      if has cx aca "default_clause" then
        Ast.Set_column_default
          ( col,
            value_expression cx
              (child_exn cx (child_exn cx aca "default_clause") "value_expression") )
      else Ast.Drop_column_default col
    else
      Ast.Drop_column
        ( column_name cx (child_exn cx action "column_name"),
          opt cx action "drop_behavior" (drop_behavior cx) )
  in
  { Ast.altered = table_name cx (child_exn cx t "table_name"); action = act }

let privilege cx t : Ast.privilege =
  let columns () =
    with_child cx t "column_name_list" ~default:[] (column_name_list cx)
  in
  if has cx t "SELECT" then Ast.P_select
  else if has cx t "INSERT" then Ast.P_insert
  else if has cx t "UPDATE" then Ast.P_update (columns ())
  else if has cx t "DELETE" then Ast.P_delete
  else if has cx t "REFERENCES" then Ast.P_references (columns ())
  else fail "privilege" "unknown privilege"

let privileges cx t : Ast.privilege list =
  if has cx t "ALL" then [ Ast.P_all ]
  else map_kids cx t "privilege" (privilege cx)

let grantee cx t : Ast.grantee =
  if has cx t "PUBLIC" then Ast.Public
  else Ast.User (identifier cx (child_exn cx t "identifier"))

let grant_statement cx t : Ast.grant =
  {
    Ast.privileges = privileges cx (child_exn cx t "privileges");
    grant_on = table_name cx (child_exn cx t "table_name");
    grantees = map_kids cx t "grantee" (grantee cx);
    with_grant_option = has cx t "WITH";
  }

let revoke_statement cx t : Ast.revoke =
  {
    Ast.revoked = privileges cx (child_exn cx t "privileges");
    revoke_on = table_name cx (child_exn cx t "table_name");
    revokees = map_kids cx t "grantee" (grantee cx);
    grant_option_for = has cx t "GRANT";
    revoke_behavior = opt cx t "drop_behavior" (drop_behavior cx);
  }

let isolation_level cx t : Ast.isolation_level =
  if has cx t "SERIALIZABLE" then Ast.Serializable
  else if has cx t "REPEATABLE" then Ast.Repeatable_read
  else if has cx t "UNCOMMITTED" then Ast.Read_uncommitted
  else Ast.Read_committed

let transaction_statement cx t : Ast.transaction_statement =
  if has cx t "COMMIT" then Ast.Commit
  else if has cx t "ROLLBACK" then
    Ast.Rollback (opt cx t "identifier" (identifier cx))
  else if has cx t "RELEASE" then
    Ast.Release_savepoint (identifier cx (child_exn cx t "identifier"))
  else if has cx t "SAVEPOINT" then
    Ast.Savepoint (identifier cx (child_exn cx t "identifier"))
  else if has cx t "START" then
    Ast.Start_transaction
      (opt cx t "isolation_spec" (fun s ->
           isolation_level cx (child_exn cx s "isolation_level")))
  else if has cx t "SET" then
    Ast.Set_transaction
      (isolation_level cx
         (child_exn cx (child_exn cx t "isolation_spec") "isolation_level"))
  else fail "transaction_statement" "unknown statement"

let sequence_statement cx t : Ast.sequence_statement =
  let name = identifier cx (child_exn cx t "identifier") in
  if has cx t "DROP" then Ast.Drop_sequence name
  else
    let numbers = map_kids cx t "UNSIGNED_INTEGER" (int_of_leaf cx) in
    let seq_start, seq_increment =
      match numbers, has cx t "START", has cx t "INCREMENT" with
      | [ s; i ], _, _ -> (Some s, Some i)
      | [ one ], true, false -> (Some one, None)
      | [ one ], false, true -> (None, Some one)
      | _, _, _ -> (None, None)
    in
    Ast.Create_sequence { seq_name = name; seq_start; seq_increment }

let session_statement cx t : Ast.session_statement =
  if has cx t "RESET" then Ast.Reset_session_authorization
  else Ast.Set_session_authorization (identifier cx (child_exn cx t "identifier"))

let schema_statement cx t : Ast.schema_statement =
  let name = identifier cx (child_exn cx t "identifier") in
  if has cx t "CREATE" then Ast.Create_schema name
  else if has cx t "DROP" then
    Ast.Drop_schema (name, opt cx t "drop_behavior" (drop_behavior cx))
  else Ast.Set_schema name

let statement_exn cx t : Ast.statement =
  let only = only cx t in
  if only = absent then fail "sql_statement" "malformed"
  else
    match label cx only with
    | "query_statement" -> Ast.Query_stmt (query_statement cx only)
    | "insert_statement" -> Ast.Insert_stmt (insert_statement cx only)
    | "update_statement" -> Ast.Update_stmt (update_statement cx only)
    | "delete_statement" -> Ast.Delete_stmt (delete_statement cx only)
    | "merge_statement" -> Ast.Merge_stmt (merge_statement cx only)
    | "create_table_statement" ->
      Ast.Create_table_stmt (create_table_statement cx only)
    | "create_view_statement" -> Ast.Create_view_stmt (create_view_statement cx only)
    | "drop_statement" -> Ast.Drop_stmt (drop_statement cx only)
    | "alter_table_statement" -> Ast.Alter_table_stmt (alter_table_statement cx only)
    | "grant_statement" -> Ast.Grant_stmt (grant_statement cx only)
    | "revoke_statement" -> Ast.Revoke_stmt (revoke_statement cx only)
    | "transaction_statement" ->
      Ast.Transaction_stmt (transaction_statement cx only)
    | "schema_statement" -> Ast.Schema_stmt (schema_statement cx only)
    | "sequence_statement" -> Ast.Sequence_stmt (sequence_statement cx only)
    | "session_statement" -> Ast.Session_stmt (session_statement cx only)
    | "explain_statement" ->
      Ast.Explain_stmt (query_statement cx (child_exn cx only "query_statement"))
    | other -> fail "sql_statement" "unknown statement <%s>" other

let rows tree =
  let cx = { tree; rows = Rows.reader tree; parameters = 0 } in
  match statement_exn cx (Rows.root tree) with
  | v -> Ok v
  | exception Lower_error e -> Error e
  | exception Failure msg -> Error { construct = "sql_statement"; message = msg }

let statement cst = rows (Rows.of_cst cst)

(* The engine's tree-walking interpreter, kept as the baseline the
   compiled executor ([Engine.Executor]) is checked against
   ([test_executor_diff.ml]) and measured against ([test_alloc.ml]).

   Every column reference searches an association list, every scan turns
   each row into a list, joins are nested loops, and grouping, DISTINCT
   and set operations are quadratic list scans. It shares its result
   types, its [Error] exception and the LIKE matcher with the engine. *)

open Sql_ast
open Engine

type result_set = Executor.result_set = {
  columns : string list;
  rows : Value.t list list;
}

exception Error = Executor.Error

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type outcome = Executor.outcome =
  | Rows of result_set
  | Affected of int
  | Done of string

(* --- Environments ---------------------------------------------------------- *)

(* A relation in flight: qualified column names plus rows of values. *)
type rel = {
  cols : (string option * string) list;
  rows : Value.t list list;
}

type env = {
  cols : (string option * string) list;
  values : Value.t list;
  outer : env option;
}

let empty_env = { cols = []; values = []; outer = None }

let env_of_row ?outer cols values = { cols; values; outer }

let rec lookup env qualifier name =
  let rec find cols values =
    match cols, values with
    | [], [] -> None
    | (q, c) :: cols', v :: values' ->
      let matches =
        String.equal c name
        && (match qualifier with
            | None -> true
            | Some want -> (match q with Some have -> String.equal want have | None -> false))
      in
      if matches then Some v else find cols' values'
    | _, _ -> err "corrupt environment"
  in
  match find env.cols env.values with
  | Some v -> Some v
  | None -> (
    match env.outer with
    | Some outer -> lookup outer qualifier name
    | None -> None)

let lookup_exn env qualifier name =
  match lookup env qualifier name with
  | Some v -> v
  | None ->
    err "unknown column %s"
      (match qualifier with Some q -> q ^ "." ^ name | None -> name)

(* --- Three-valued logic ----------------------------------------------------- *)

type tv = T | F | U

let tv_of_bool b = if b then T else F
let tv_not = function T -> F | F -> T | U -> U
let tv_and a b =
  match a, b with F, _ | _, F -> F | T, T -> T | _ -> U
let tv_or a b =
  match a, b with T, _ | _, T -> T | F, F -> F | _ -> U
let tv_is_true = function T -> true | F | U -> false

(* --- Aggregate detection ------------------------------------------------------ *)

let rec expr_has_aggregate (e : Ast.expr) =
  match e with
  | Ast.Aggregate _ -> true
  | Ast.Lit _ | Ast.Column _ -> false
  | Ast.Unary (_, e) -> expr_has_aggregate e
  | Ast.Binop (_, a, b) -> expr_has_aggregate a || expr_has_aggregate b
  | Ast.Call (_, args) -> List.exists expr_has_aggregate args
  | Ast.Substring { arg; from_; for_ } ->
    expr_has_aggregate arg || expr_has_aggregate from_
    || Option.fold ~none:false ~some:expr_has_aggregate for_
  | Ast.Position { needle; haystack } ->
    expr_has_aggregate needle || expr_has_aggregate haystack
  | Ast.Trim { removed; arg; _ } ->
    expr_has_aggregate arg || Option.fold ~none:false ~some:expr_has_aggregate removed
  | Ast.Extract { arg; _ } -> expr_has_aggregate arg
  | Ast.Case_simple { operand; branches; else_ } ->
    expr_has_aggregate operand
    || List.exists (fun (w, t) -> expr_has_aggregate w || expr_has_aggregate t) branches
    || Option.fold ~none:false ~some:expr_has_aggregate else_
  | Ast.Case_searched { branches; else_ } ->
    List.exists (fun (_, t) -> expr_has_aggregate t) branches
    || Option.fold ~none:false ~some:expr_has_aggregate else_
  | Ast.Cast (e, _) -> expr_has_aggregate e
  | Ast.Scalar_subquery _ -> false
  | Ast.Next_value _ | Ast.Parameter _ -> false
  | Ast.Overlay { arg; placing; from_; for_ } ->
    expr_has_aggregate arg || expr_has_aggregate placing
    || expr_has_aggregate from_
    || Option.fold ~none:false ~some:expr_has_aggregate for_
  | Ast.Window_call _ -> false

let rec cond_has_aggregate (c : Ast.cond) =
  match c with
  | Ast.Comparison (_, a, b) -> expr_has_aggregate a || expr_has_aggregate b
  | Ast.Quantified_comparison { lhs; _ } -> expr_has_aggregate lhs
  | Ast.Between { arg; low; high; _ } ->
    expr_has_aggregate arg || expr_has_aggregate low || expr_has_aggregate high
  | Ast.In_list { arg; values; _ } ->
    expr_has_aggregate arg || List.exists expr_has_aggregate values
  | Ast.In_subquery { arg; _ } -> expr_has_aggregate arg
  | Ast.Like { arg; pattern; _ } ->
    expr_has_aggregate arg || expr_has_aggregate pattern
  | Ast.Is_null { arg; _ } -> expr_has_aggregate arg
  | Ast.Is_distinct_from { lhs; rhs; _ } ->
    expr_has_aggregate lhs || expr_has_aggregate rhs
  | Ast.Exists _ | Ast.Unique _ -> false
  | Ast.Not c -> cond_has_aggregate c
  | Ast.And (a, b) | Ast.Or (a, b) -> cond_has_aggregate a || cond_has_aggregate b
  | Ast.Is_truth { arg; _ } -> cond_has_aggregate arg
  | Ast.Overlaps (a, b) -> expr_has_aggregate a || expr_has_aggregate b
  | Ast.Similar { arg; pattern; _ } ->
    expr_has_aggregate arg || expr_has_aggregate pattern
  | Ast.Bool_expr e -> expr_has_aggregate e

(* Views whose query is being evaluated, innermost first: a view that reaches
   itself is an error, not an endless recursion. *)
let expanding_views = ref []

(* --- Expression evaluation ------------------------------------------------------ *)

(* [group] is the aggregation context: when set, Aggregate nodes are computed
   over its rows while everything else evaluates against [env] (the group's
   representative row). *)
let rec eval_expr catalog ?group env (e : Ast.expr) : Value.t =
  let recurse = eval_expr catalog ?group env in
  match e with
  | Ast.Lit l -> Value.of_literal l
  | Ast.Column (qualifier, name) -> lookup_exn env qualifier name
  | Ast.Unary (Ast.S_plus, e) -> recurse e
  | Ast.Unary (Ast.S_minus, e) -> Value.sub (Value.Int 0) (recurse e)
  | Ast.Binop (op, a, b) ->
    let va = recurse a and vb = recurse b in
    (match op with
     | Ast.Add -> Value.add va vb
     | Ast.Sub -> Value.sub va vb
     | Ast.Mul -> Value.mul va vb
     | Ast.Div -> Value.div va vb
     | Ast.Concat -> Value.concat va vb)
  | Ast.Aggregate agg -> (
    match group with
    | None -> err "aggregate function outside GROUP BY context"
    | Some rows -> eval_aggregate catalog rows agg)
  | Ast.Call (name, args) -> eval_call catalog ?group env name (List.map recurse args)
  | Ast.Substring { arg; from_; for_ } -> (
    match recurse arg, recurse from_, Option.map recurse for_ with
    | Value.Null, _, _ | _, Value.Null, _ | _, _, Some Value.Null -> Value.Null
    | Value.Str s, Value.Int start, len ->
      let start = max 1 start in
      let avail = String.length s - start + 1 in
      let take =
        match len with
        | Some (Value.Int k) -> min k avail
        | None -> avail
        | Some _ -> err "SUBSTRING length must be an integer"
      in
      if take <= 0 || start > String.length s then Value.Str ""
      else Value.Str (String.sub s (start - 1) take)
    | _, _, _ -> err "SUBSTRING applies to strings")
  | Ast.Position { needle; haystack } -> (
    match recurse needle, recurse haystack with
    | Value.Null, _ | _, Value.Null -> Value.Null
    | Value.Str needle, Value.Str hay ->
      let ln = String.length needle and lh = String.length hay in
      if ln = 0 then Value.Int 1
      else
        let rec find i =
          if i + ln > lh then Value.Int 0
          else if String.equal (String.sub hay i ln) needle then Value.Int (i + 1)
          else find (i + 1)
        in
        find 0
    | _, _ -> err "POSITION applies to strings")
  | Ast.Trim { side; removed; arg } -> (
    match recurse arg with
    | Value.Null -> Value.Null
    | Value.Str s ->
      let removed_char =
        match Option.map recurse removed with
        | None -> ' '
        | Some (Value.Str r) when String.length r = 1 -> r.[0]
        | Some Value.Null -> ' '
        | Some _ -> err "TRIM character must be a single-character string"
      in
      let trim_left s =
        let i = ref 0 in
        while !i < String.length s && s.[!i] = removed_char do incr i done;
        String.sub s !i (String.length s - !i)
      in
      let trim_right s =
        let j = ref (String.length s) in
        while !j > 0 && s.[!j - 1] = removed_char do decr j done;
        String.sub s 0 !j
      in
      Value.Str
        (match side with
         | Some Ast.Trim_leading -> trim_left s
         | Some Ast.Trim_trailing -> trim_right s
         | Some Ast.Trim_both | None -> trim_left (trim_right s))
    | _ -> err "TRIM applies to strings")
  | Ast.Extract { field; arg } -> (
    (* Date/time values are ISO-8601 strings: YYYY-MM-DD[ HH:MM:SS]. *)
    match recurse arg with
    | Value.Null -> Value.Null
    | Value.Str s -> extract_field field s
    | _ -> err "EXTRACT applies to datetime strings")
  | Ast.Case_simple { operand; branches; else_ } ->
    let v = recurse operand in
    let rec pick = function
      | [] -> Option.fold ~none:Value.Null ~some:recurse else_
      | (w, t) :: rest -> if Value.equal v (recurse w) then recurse t else pick rest
    in
    pick branches
  | Ast.Case_searched { branches; else_ } ->
    let rec pick = function
      | [] -> Option.fold ~none:Value.Null ~some:recurse else_
      | (w, t) :: rest ->
        if tv_is_true (eval_cond catalog ?group env w) then recurse t else pick rest
    in
    pick branches
  | Ast.Cast (e, ty) -> Value.coerce ty (recurse e)
  | Ast.Window_call { wfunc; _ } ->
    err "window function %s is parse-only (not executed by the engine)" wfunc
  | Ast.Parameter n ->
    err "unbound dynamic parameter ?%d (bind values with Params.bind)" n
  | Ast.Next_value name -> (
    match Catalog.next_value catalog name with
    | Ok v -> Value.Int v
    | Error msg -> err "%s" msg)
  | Ast.Overlay { arg; placing; from_; for_ } -> (
    match recurse arg, recurse placing, recurse from_, Option.map recurse for_ with
    | Value.Null, _, _, _ | _, Value.Null, _, _ | _, _, Value.Null, _
    | _, _, _, Some Value.Null ->
      Value.Null
    | Value.Str s, Value.Str repl, Value.Int from_i, for_v ->
      let from_i = max 1 from_i in
      let take =
        match for_v with
        | Some (Value.Int k) -> k
        | None -> String.length repl
        | Some _ -> err "OVERLAY length must be an integer"
      in
      let prefix = String.sub s 0 (min (from_i - 1) (String.length s)) in
      let rest_start = min (String.length s) (from_i - 1 + max 0 take) in
      let suffix = String.sub s rest_start (String.length s - rest_start) in
      Value.Str (prefix ^ repl ^ suffix)
    | _, _, _, _ -> err "OVERLAY applies to strings")
  | Ast.Scalar_subquery q -> (
    let rs = query catalog ~outer:env q in
    match rs.rows with
    | [] -> Value.Null
    | [ [ v ] ] -> v
    | [ _ ] -> err "scalar subquery returned more than one column"
    | _ -> err "scalar subquery returned more than one row")

and extract_field field s =
  let part ~from ~len =
    if String.length s >= from + len then
      match int_of_string_opt (String.sub s from len) with
      | Some n -> Value.Int n
      | None -> err "malformed datetime string %S" s
    else err "malformed datetime string %S" s
  in
  match String.uppercase_ascii field with
  | "YEAR" -> part ~from:0 ~len:4
  | "MONTH" -> part ~from:5 ~len:2
  | "DAY" -> part ~from:8 ~len:2
  | "HOUR" -> part ~from:11 ~len:2
  | "MINUTE" -> part ~from:14 ~len:2
  | "SECOND" -> part ~from:17 ~len:2
  | f -> err "unknown EXTRACT field %s" f

and eval_call _catalog ?group env name args =
  ignore group;
  ignore env;
  let str1 f =
    match args with
    | [ Value.Null ] -> Value.Null
    | [ Value.Str s ] -> f s
    | _ -> err "%s expects one string argument" name
  in
  match String.uppercase_ascii name, args with
  | "UPPER", _ -> str1 (fun s -> Value.Str (String.uppercase_ascii s))
  | "LOWER", _ -> str1 (fun s -> Value.Str (String.lowercase_ascii s))
  | "CHAR_LENGTH", _ | "CHARACTER_LENGTH", _ | "OCTET_LENGTH", _ ->
    str1 (fun s -> Value.Int (String.length s))
  | "ABS", [ Value.Null ] -> Value.Null
  | "ABS", [ Value.Int n ] -> Value.Int (abs n)
  | "ABS", [ Value.Float f ] -> Value.Float (Float.abs f)
  | "MOD", [ Value.Null; _ ] | "MOD", [ _; Value.Null ] -> Value.Null
  | "MOD", [ Value.Int _; Value.Int 0 ] -> raise Value.Division_by_zero
  | "MOD", [ Value.Int a; Value.Int b ] -> Value.Int (a mod b)
  | "NULLIF", [ a; b ] -> if Value.equal a b then Value.Null else a
  | "COALESCE", args -> (
    match List.find_opt (fun v -> not (Value.is_null v)) args with
    | Some v -> v
    | None -> Value.Null)
  | "CURRENT_DATE", [] -> Value.Str "2008-03-29"
    (* The engine is deterministic: "today" is the paper's workshop date. *)
  | "CURRENT_TIME", [] -> Value.Str "12:00:00"
  | "CURRENT_TIMESTAMP", [] | "LOCALTIMESTAMP", [] ->
    Value.Str "2008-03-29 12:00:00"
  | "LOCALTIME", [] -> Value.Str "12:00:00"
  | "CURRENT_USER", [] | "SESSION_USER", [] | "SYSTEM_USER", [] ->
    Value.Str "sqlpl"
  | other, _ -> err "unknown function %s" other

and eval_aggregate catalog rows (agg : Ast.aggregate) : Value.t =
  let arg_values () =
    match agg.arg with
    | Ast.A_star -> List.map (fun _ -> Value.Int 1) rows
    | Ast.A_expr e -> List.map (fun env -> eval_expr catalog env e) rows
  in
  let values =
    match agg.arg with
    | Ast.A_star -> arg_values ()
    | Ast.A_expr _ ->
      List.filter (fun v -> not (Value.is_null v)) (arg_values ())
  in
  let values =
    match agg.agg_quantifier with
    | Some Ast.Distinct ->
      List.fold_left
        (fun acc v -> if List.exists (Value.equal v) acc then acc else acc @ [ v ])
        [] values
    | Some Ast.All | None -> values
  in
  match agg.func with
  | Ast.F_count -> Value.Int (List.length values)
  | Ast.F_sum ->
    if values = [] then Value.Null
    else List.fold_left Value.add (Value.Int 0) values
  | Ast.F_avg ->
    if values = [] then Value.Null
    else
      Value.div
        (List.fold_left Value.add (Value.Float 0.) values)
        (Value.Float (float_of_int (List.length values)))
  | Ast.F_min ->
    List.fold_left
      (fun acc v ->
        match acc with
        | Value.Null -> v
        | _ -> if Value.compare_total v acc < 0 then v else acc)
      Value.Null values
  | Ast.F_max ->
    List.fold_left
      (fun acc v ->
        match acc with
        | Value.Null -> v
        | _ -> if Value.compare_total v acc > 0 then v else acc)
      Value.Null values
  | Ast.F_every ->
    if values = [] then Value.Null
    else
      Value.Bool
        (List.for_all (function Value.Bool b -> b | _ -> err "EVERY expects booleans") values)
  | Ast.F_any ->
    if values = [] then Value.Null
    else
      Value.Bool
        (List.exists (function Value.Bool b -> b | _ -> err "ANY expects booleans") values)

(* --- Condition evaluation ---------------------------------------------------------- *)

and eval_cond catalog ?group env (c : Ast.cond) : tv =
  let expr e = eval_expr catalog ?group env e in
  let compare_tv op a b =
    match Value.compare_sql a b with
    | None -> U
    | Some c ->
      tv_of_bool
        (match op with
         | Ast.Eq -> c = 0
         | Ast.Neq -> c <> 0
         | Ast.Lt -> c < 0
         | Ast.Gt -> c > 0
         | Ast.Le -> c <= 0
         | Ast.Ge -> c >= 0)
  in
  match c with
  | Ast.Comparison (op, a, b) -> compare_tv op (expr a) (expr b)
  | Ast.Quantified_comparison { op; lhs; quantifier; subquery } ->
    let v = expr lhs in
    let rs = query catalog ~outer:env subquery in
    let results =
      List.map
        (fun row ->
          match row with
          | [ rv ] -> compare_tv op v rv
          | _ -> err "quantified subquery must return one column")
        rs.rows
    in
    (match quantifier with
     | Ast.Q_all -> List.fold_left tv_and T results
     | Ast.Q_some -> List.fold_left tv_or F results)
  | Ast.Between { negated; symmetric; arg; low; high } ->
    let v = expr arg in
    let lo = expr low and hi = expr high in
    let lo, hi =
      (* SYMMETRIC accepts the bounds in either order. *)
      if symmetric && Value.compare_sql lo hi = Some 1 then (hi, lo) else (lo, hi)
    in
    let r = tv_and (compare_tv Ast.Ge v lo) (compare_tv Ast.Le v hi) in
    if negated then tv_not r else r
  | Ast.In_list { negated; arg; values } ->
    let v = expr arg in
    let r =
      List.fold_left (fun acc e -> tv_or acc (compare_tv Ast.Eq v (expr e))) F values
    in
    if negated then tv_not r else r
  | Ast.In_subquery { negated; arg; subquery } ->
    let v = expr arg in
    let rs = query catalog ~outer:env subquery in
    let r =
      List.fold_left
        (fun acc row ->
          match row with
          | [ rv ] -> tv_or acc (compare_tv Ast.Eq v rv)
          | _ -> err "IN subquery must return one column")
        F rs.rows
    in
    if negated then tv_not r else r
  | Ast.Like { negated; arg; pattern; escape } ->
    let r =
      match expr arg, expr pattern, Option.map expr escape with
      | Value.Null, _, _ | _, Value.Null, _ -> U
      | Value.Str s, Value.Str p, esc ->
        let escape =
          match esc with
          | Some (Value.Str e) when String.length e = 1 -> Some e.[0]
          | None -> None
          | Some Value.Null -> None
          | Some _ -> err "ESCAPE must be a single character"
        in
        tv_of_bool (Like.like ?escape ~pattern:p s)
      | _, _, _ -> err "LIKE applies to strings"
    in
    if negated then tv_not r else r
  | Ast.Is_null { negated; arg } ->
    let r = tv_of_bool (Value.is_null (expr arg)) in
    if negated then tv_not r else r
  | Ast.Is_distinct_from { negated; lhs; rhs } ->
    let r = tv_of_bool (not (Value.equal (expr lhs) (expr rhs))) in
    if negated then tv_not r else r
  | Ast.Exists q -> tv_of_bool ((query catalog ~outer:env q).rows <> [])
  | Ast.Unique q ->
    let rows = (query catalog ~outer:env q).rows in
    let rec distinct = function
      | [] -> true
      | r :: rest -> (not (List.exists (List.equal Value.equal r) rest)) && distinct rest
    in
    tv_of_bool (distinct rows)
  | Ast.Not c -> tv_not (eval_cond catalog ?group env c)
  | Ast.And (a, b) -> tv_and (eval_cond catalog ?group env a) (eval_cond catalog ?group env b)
  | Ast.Or (a, b) -> tv_or (eval_cond catalog ?group env a) (eval_cond catalog ?group env b)
  | Ast.Is_truth { negated; arg; truth } ->
    let v = eval_cond catalog ?group env arg in
    let r =
      tv_of_bool
        (match truth with
         | Ast.True -> v = T
         | Ast.False -> v = F
         | Ast.Unknown -> v = U)
    in
    if negated then tv_not r else r
  | Ast.Overlaps (a, b) -> compare_tv Ast.Eq (expr a) (expr b)
    (* simplified: full OVERLAPS needs period values, out of engine scope *)
  | Ast.Similar { negated; arg; pattern } ->
    (* Approximated by LIKE semantics over the shared '%'/'_' wildcards. *)
    let r =
      match expr arg, expr pattern with
      | Value.Null, _ | _, Value.Null -> U
      | Value.Str s, Value.Str p -> tv_of_bool (Like.like ~pattern:p s)
      | _, _ -> err "SIMILAR applies to strings"
    in
    if negated then tv_not r else r
  | Ast.Bool_expr e -> (
    match expr e with
    | Value.Bool b -> tv_of_bool b
    | Value.Null -> U
    | _ -> err "boolean expression expected in condition")

(* --- FROM clause ----------------------------------------------------------------------- *)

and rel_of_result_set ?alias name (rs : result_set) columns_override =
  let names =
    match columns_override with
    | [] -> rs.columns
    | cols ->
      if List.length cols <> List.length rs.columns then
        err "column list arity mismatch for %s" name
      else cols
  in
  let qualifier = Some (Option.value ~default:name alias) in
  { cols = List.map (fun c -> (qualifier, c)) names; rows = rs.rows }

and rel_of_table_ref catalog ~outer (tr : Ast.table_ref) : rel =
  match tr with
  | Ast.Table (name, corr) -> (
    let alias = Option.map (fun c -> c.Ast.alias) corr in
    let columns_override =
      match corr with Some c -> c.Ast.columns | None -> []
    in
    match Catalog.find catalog name.Ast.name with
    | None -> err "unknown table %s" name.Ast.name
    | Some (Catalog.Base_table table) ->
      let qualifier = Some (Option.value ~default:name.Ast.name alias) in
      let names =
        match columns_override with
        | [] -> Schema.column_names table.Table.schema
        | cols ->
          if List.length cols <> List.length table.Table.schema.Schema.columns then
            err "column list arity mismatch for %s" name.Ast.name
          else cols
      in
      {
        cols = List.map (fun c -> (qualifier, c)) names;
        rows = List.map Array.to_list (Table.rows_list table);
      }
    | Some (Catalog.View view) ->
      let vname = name.Ast.name in
      if List.mem vname !expanding_views then
        err "view %s is defined in terms of itself" vname;
      expanding_views := vname :: !expanding_views;
      let rs =
        Fun.protect
          ~finally:(fun () -> expanding_views := List.tl !expanding_views)
          (fun () -> query catalog ?outer view.Ast.view_query)
      in
      let base_override =
        match view.Ast.view_columns with [] -> columns_override | cols -> cols
      in
      rel_of_result_set ?alias name.Ast.name rs base_override)
  | Ast.Derived_table (q, corr) ->
    let rs = query catalog ?outer q in
    rel_of_result_set ~alias:corr.Ast.alias corr.Ast.alias rs corr.Ast.columns
  | Ast.Joined { lhs; kind; rhs; condition } ->
    join catalog ~outer kind condition
      (rel_of_table_ref catalog ~outer lhs)
      (rel_of_table_ref catalog ~outer rhs)

and join catalog ~outer kind condition left right : rel =
  let cols = left.cols @ right.cols in
  let null_right = List.map (fun _ -> Value.Null) right.cols in
  let null_left = List.map (fun _ -> Value.Null) left.cols in
  let matches lrow rrow =
    let env = env_of_row ?outer cols (lrow @ rrow) in
    match kind, condition with
    | Ast.Cross, _ -> true
    | Ast.Natural, _ ->
      let common =
        List.filter
          (fun (_, c) -> List.exists (fun (_, c') -> String.equal c c') right.cols)
          left.cols
      in
      List.for_all
        (fun (_, c) ->
          let lv = lookup_exn (env_of_row left.cols lrow) None c in
          let rv = lookup_exn (env_of_row right.cols rrow) None c in
          Value.equal lv rv && not (Value.is_null lv))
        common
    | _, Some (Ast.On c) -> tv_is_true (eval_cond catalog env c)
    | _, Some (Ast.Using cs) ->
      List.for_all
        (fun c ->
          let lv = lookup_exn (env_of_row left.cols lrow) None c in
          let rv = lookup_exn (env_of_row right.cols rrow) None c in
          Value.equal lv rv && not (Value.is_null lv))
        cs
    | _, None -> err "join requires an ON or USING condition"
  in
  (* Each pair is tested once; outer-join padding reads the match flags. *)
  let lmatched = Array.make (List.length left.rows) false in
  let rmatched = Array.make (List.length right.rows) false in
  let inner =
    List.concat
      (List.mapi
         (fun li lrow ->
           List.concat
             (List.mapi
                (fun ri rrow ->
                  if matches lrow rrow then begin
                    lmatched.(li) <- true;
                    rmatched.(ri) <- true;
                    [ lrow @ rrow ]
                  end
                  else [])
                right.rows))
         left.rows)
  in
  let left_padding () =
    List.concat
      (List.mapi
         (fun li lrow -> if lmatched.(li) then [] else [ lrow @ null_right ])
         left.rows)
  in
  let right_padding () =
    List.concat
      (List.mapi
         (fun ri rrow -> if rmatched.(ri) then [] else [ null_left @ rrow ])
         right.rows)
  in
  let rows =
    match kind with
    | Ast.Inner | Ast.Cross | Ast.Natural -> inner
    | Ast.Left_outer -> inner @ left_padding ()
    | Ast.Right_outer -> inner @ right_padding ()
    | Ast.Full_outer -> inner @ left_padding () @ right_padding ()
  in
  { cols; rows }

and cross_rels (rels : rel list) : rel =
  match rels with
  | [] -> { cols = []; rows = [ [] ] }
  | first :: rest ->
    List.fold_left
      (fun (acc : rel) (r : rel) ->
        {
          cols = acc.cols @ r.cols;
          rows =
            List.concat_map
              (fun arow -> List.map (fun brow -> arow @ brow) r.rows)
              acc.rows;
        })
      first rest

(* --- SELECT ------------------------------------------------------------------------------ *)

and item_column_name item index =
  match item with
  | Ast.Expr_item (_, Some alias) -> alias
  | Ast.Expr_item (Ast.Column (_, name), None) -> name
  | Ast.Expr_item (_, None) | Ast.Star | Ast.Qualified_star _ ->
    Printf.sprintf "column%d" (index + 1)

and projection_columns (sel : Ast.select) (src : rel) =
  List.concat
    (List.mapi
       (fun i item ->
         match item with
         | Ast.Star -> List.map snd src.cols
         | Ast.Qualified_star q ->
           let matching =
             List.filter
               (fun (qual, _) -> qual = Some q)
               src.cols
           in
           if matching = [] then err "unknown qualifier %s" q
           else List.map snd matching
         | Ast.Expr_item _ -> [ item_column_name item i ])
       sel.projection)

and project_row catalog ?group env (sel : Ast.select) =
  List.concat_map
    (fun item ->
      match item with
      | Ast.Star -> env.values
      | Ast.Qualified_star q ->
        List.concat
          (List.map2
             (fun (qual, _) v -> if qual = Some q then [ v ] else [])
             env.cols env.values)
      | Ast.Expr_item (e, _) -> [ eval_expr catalog ?group env e ])
    sel.projection

and dedupe_rows rows =
  List.rev
    (List.fold_left
       (fun acc row ->
         if List.exists (List.equal Value.equal row) acc then acc else row :: acc)
       [] rows)

(* Besides the result rows, [select_rows] returns the evaluation context each
   row was produced from (its source environment and, for aggregated rows,
   the group): ORDER BY resolves sort expressions against the result columns
   first and falls through to these contexts, so both "ORDER BY alias" and
   "ORDER BY unprojected_column" (and "ORDER BY SUM(x)") work. *)
and select_rows catalog ?outer (sel : Ast.select) :
  result_set * (env * env list option) list =
  let src =
    match sel.from with
    | [] -> { cols = []; rows = [ [] ] }  (* SELECT without FROM *)
    | refs -> cross_rels (List.map (rel_of_table_ref catalog ~outer) refs)
  in
  let env_of row = env_of_row ?outer src.cols row in
  let filtered =
    match sel.where with
    | None -> src.rows
    | Some c ->
      List.filter (fun row -> tv_is_true (eval_cond catalog (env_of row) c)) src.rows
  in
  let aggregated =
    sel.group_by <> []
    || List.exists
         (function
           | Ast.Expr_item (e, _) -> expr_has_aggregate e
           | Ast.Star | Ast.Qualified_star _ -> false)
         sel.projection
    || Option.fold ~none:false ~some:cond_has_aggregate sel.having
  in
  let columns = projection_columns sel src in
  let produced =
    if not aggregated then
      List.map
        (fun row ->
          let env = env_of row in
          (project_row catalog env sel, (env, None)))
        filtered
    else begin
      (* Grouping: only plain expression grouping is executable; ROLLUP /
         CUBE / GROUPING SETS parse and lower but are not evaluated. *)
      let key_exprs =
        List.map
          (function
            | Ast.Group_expr e -> e
            | Ast.Rollup _ | Ast.Cube _ | Ast.Grouping_sets _ ->
              err "ROLLUP/CUBE/GROUPING SETS are not supported by the engine")
          sel.group_by
      in
      let groups =
        List.fold_left
          (fun acc row ->
            let env = env_of row in
            let key = List.map (eval_expr catalog env) key_exprs in
            let rec add = function
              | [] -> [ (key, [ env ]) ]
              | (k, envs) :: rest ->
                if List.equal Value.equal k key then (k, envs @ [ env ]) :: rest
                else (k, envs) :: add rest
            in
            add acc)
          [] filtered
      in
      let groups =
        (* Aggregation without GROUP BY yields one (possibly empty) group. *)
        if key_exprs = [] then [ ([], List.map env_of filtered) ] else groups
      in
      List.filter_map
        (fun (_, envs) ->
          let representative =
            match envs with
            | e :: _ -> e
            | [] -> env_of (List.map (fun _ -> Value.Null) src.cols)
          in
          let keep =
            match sel.having with
            | None -> true
            | Some c -> tv_is_true (eval_cond catalog ~group:envs representative c)
          in
          if keep then
            Some
              (project_row catalog ~group:envs representative sel,
               (representative, Some envs))
          else None)
        groups
    end
  in
  let produced =
    match sel.select_quantifier with
    | Some Ast.Distinct ->
      (* Deduplicate on the row values, keeping the first context. *)
      List.rev
        (List.fold_left
           (fun acc (row, ctx) ->
             if List.exists (fun (r, _) -> List.equal Value.equal r row) acc then acc
             else (row, ctx) :: acc)
           [] produced)
    | Some Ast.All | None -> produced
  in
  ({ columns; rows = List.map fst produced }, List.map snd produced)

and select catalog ?outer (sel : Ast.select) : result_set =
  fst (select_rows catalog ?outer sel)

(* --- Query bodies, ordering, fetch --------------------------------------------------------- *)

and query_body catalog ?outer (body : Ast.query_body) : result_set =
  match body with
  | Ast.Select sel -> select catalog ?outer sel
  | Ast.Paren_query q -> query catalog ?outer q
  | Ast.Values rows ->
    let env = Option.value ~default:empty_env outer in
    let evaluated = List.map (List.map (eval_expr catalog env)) rows in
    let width = match evaluated with [] -> 0 | r :: _ -> List.length r in
    if List.exists (fun r -> List.length r <> width) evaluated then
      err "VALUES rows differ in width";
    {
      columns = List.init width (fun i -> Printf.sprintf "column%d" (i + 1));
      rows = evaluated;
    }
  | Ast.Set_operation { op; quantifier; corresponding; lhs; rhs } ->
    let l = query_body catalog ?outer lhs in
    let r = query_body catalog ?outer rhs in
    let l, r =
      if not corresponding then (l, r)
      else begin
        (* CORRESPONDING: operate on the columns common to both operands
           (by name, in left-operand order). *)
        let common = List.filter (fun c -> List.mem c r.columns) l.columns in
        if common = [] then err "CORRESPONDING: no common columns";
        let project (rs : result_set) =
          let indices =
            List.map
              (fun c ->
                let rec find i = function
                  | [] -> err "CORRESPONDING: missing column %s" c
                  | x :: rest -> if String.equal x c then i else find (i + 1) rest
                in
                find 0 rs.columns)
              common
          in
          {
            columns = common;
            rows = List.map (fun row -> List.map (List.nth row) indices) rs.rows;
          }
        in
        (project l, project r)
      end
    in
    if List.length l.columns <> List.length r.columns then
      err "set operation arity mismatch";
    let distinct = quantifier <> Some Ast.All in
    let rows =
      match op with
      | Ast.Union ->
        let all = l.rows @ r.rows in
        if distinct then dedupe_rows all else all
      | Ast.Intersect ->
        let keep =
          List.filter
            (fun row -> List.exists (List.equal Value.equal row) r.rows)
            l.rows
        in
        if distinct then dedupe_rows keep else keep
      | Ast.Except ->
        let keep =
          List.filter
            (fun row -> not (List.exists (List.equal Value.equal row) r.rows))
            l.rows
        in
        if distinct then dedupe_rows keep else keep
    in
    { columns = l.columns; rows }

(* Materialize WITH-clause results as overlay tables. Non-recursive CTEs
   evaluate once, in order (later CTEs see earlier ones). A recursive CTE
   starts empty and re-evaluates to a fixpoint (bounded, since each round
   must add rows). *)
and materialize_ctes catalog (wc : Ast.with_clause) =
  let cte_table name columns rows =
    let schema =
      {
        Schema.name;
        columns =
          List.map
            (fun c ->
              {
                Schema.col_name = c;
                col_type = Ast.T_varchar None;  (* untyped: rows stored raw *)
                not_null = false;
                primary_key = false;
                unique = false;
                default = None;
                references = None;
              })
            columns;
        checks = [];
        unique_sets = [];
        foreign_keys = [];
      }
    in
    let table = Table.create schema in
    List.iter (fun row -> Table.insert table (Array.of_list row)) rows;
    (name, Catalog.Base_table table)
  in
  List.fold_left
    (fun overlayed (cte : Ast.cte) ->
      let scope = Catalog.overlay catalog overlayed in
      let columns_of rs =
        match cte.Ast.cte_columns with
        | [] -> rs.columns
        | cols ->
          if List.length cols <> List.length rs.columns then
            err "WITH %s: column list arity mismatch" cte.Ast.cte_name
          else cols
      in
      if not wc.Ast.recursive then
        let rs = query scope cte.Ast.cte_query in
        overlayed @ [ cte_table cte.Ast.cte_name (columns_of rs) rs.rows ]
      else begin
        (* Fixpoint: start empty, re-evaluate until the row set is stable. *)
        let current = ref [] in
        let columns = ref cte.Ast.cte_columns in
        let continue = ref true in
        let rounds = ref 0 in
        while !continue do
          incr rounds;
          if !rounds > 256 then err "WITH RECURSIVE %s does not converge" cte.Ast.cte_name;
          let scope =
            Catalog.overlay catalog
              (overlayed
               @ [
                   cte_table cte.Ast.cte_name
                     (if !columns = [] then
                        List.map (fun i -> Printf.sprintf "column%d" (i + 1))
                          (List.init
                             (match !current with r :: _ -> List.length r | [] -> 0)
                             Fun.id)
                      else !columns)
                     !current;
                 ])
          in
          let rs = query scope cte.Ast.cte_query in
          columns := columns_of rs;
          let merged = dedupe_rows (!current @ rs.rows) in
          if List.length merged = List.length !current then continue := false
          else current := merged
        done;
        overlayed @ [ cte_table cte.Ast.cte_name !columns !current ]
      end)
    [] wc.Ast.ctes

and query catalog ?outer (q : Ast.query) : result_set =
  let catalog =
    match q.Ast.with_ with
    | None -> catalog
    | Some wc -> Catalog.overlay catalog (materialize_ctes catalog wc)
  in
  let rs, contexts =
    match q.body with
    | Ast.Select sel when q.order_by <> [] ->
      let rs, contexts = select_rows catalog ?outer sel in
      (rs, Some contexts)
    | body -> (query_body catalog ?outer body, None)
  in
  let rs =
    match q.order_by with
    | [] -> rs
    | specs ->
      let cols = List.map (fun c -> (None, c)) rs.columns in
      let contexts =
        match contexts with
        | Some cs -> List.map (fun c -> Some c) cs
        | None -> List.map (fun _ -> None) rs.rows
      in
      let keyed =
        List.map2
          (fun row context ->
            (* Result columns shadow source columns; the source environment
               (when available) is the fallback scope, and grouped rows keep
               their group for aggregate sort keys. *)
            let source_outer, group =
              match context with
              | Some (env, group) -> (Some env, group)
              | None -> (outer, None)
            in
            let env = env_of_row ?outer:source_outer cols row in
            (List.map (fun s -> eval_expr catalog ?group env s.Ast.sort_expr) specs, row))
          rs.rows contexts
      in
      let compare_keys (ka, _) (kb, _) =
        let rec go specs ka kb =
          match specs, ka, kb with
          | [], [], [] -> 0
          | s :: specs', a :: ka', b :: kb' ->
            let base =
              match a, b with
              | Value.Null, Value.Null -> 0
              | Value.Null, _ ->
                (* Default: NULLs sort last ascending, overridable. *)
                (match s.Ast.nulls_last with Some false -> -1 | _ -> 1)
              | _, Value.Null ->
                (match s.Ast.nulls_last with Some false -> 1 | _ -> -1)
              | _, _ ->
                let c = Value.compare_total a b in
                if s.Ast.descending then -c else c
            in
            if base <> 0 then base else go specs' ka' kb'
          | _, _, _ -> 0
        in
        go specs ka kb
      in
      { rs with rows = List.map snd (List.stable_sort compare_keys keyed) }
  in
  match q.fetch with
  | None -> rs
  | Some (Ast.Fetch_first n) | Some (Ast.Limit n) ->
    { rs with rows = List.filteri (fun i _ -> i < n) rs.rows }

(* --- DML / DDL ------------------------------------------------------------------------------ *)

let find_base_table catalog (name : Ast.object_name) =
  match Catalog.find catalog name.Ast.name with
  | Some (Catalog.Base_table t) -> t
  | Some (Catalog.View _) -> err "%s is a view, not a base table" name.Ast.name
  | None -> err "unknown table %s" name.Ast.name

let check_constraints catalog (table : Table.t) row =
  let schema = table.Table.schema in
  let cols = List.map (fun c -> (Some schema.Schema.name, c)) (Schema.column_names schema) in
  let env = env_of_row cols (Array.to_list row) in
  List.iteri
    (fun i (c : Schema.column) ->
      if c.Schema.not_null && Value.is_null row.(i) then
        err "column %s may not be null" c.Schema.col_name)
    schema.Schema.columns;
  List.iter
    (fun check ->
      match eval_cond catalog env check with
      | F -> err "CHECK constraint violated on %s" schema.Schema.name
      | T | U -> ())
    schema.Schema.checks;
  (* Single-column UNIQUE / PRIMARY KEY. *)
  List.iteri
    (fun i (c : Schema.column) ->
      if c.Schema.unique && not (Value.is_null row.(i)) then
        Vec.iter
          (fun existing ->
            if Value.equal existing.(i) row.(i) then
              err "duplicate value for unique column %s" c.Schema.col_name)
          table.Table.rows)
    schema.Schema.columns;
  (* Multi-column UNIQUE / PRIMARY KEY sets. *)
  List.iter
    (fun set ->
      let indices =
        List.map
          (fun name ->
            match Schema.column_index schema name with
            | Some i -> i
            | None -> err "unknown column %s" name)
          set
      in
      Vec.iter
        (fun existing ->
          if List.for_all (fun i -> Value.equal existing.(i) row.(i)) indices then
            err "duplicate key for unique constraint on %s"
              (String.concat ", " set))
        table.Table.rows)
    schema.Schema.unique_sets;
  (* Foreign keys: the referenced value must exist. *)
  let check_reference cols_here (spec : Ast.references_spec) =
    let target = find_base_table catalog spec.Ast.ref_table in
    let target_cols =
      match spec.Ast.ref_columns with
      | [] ->
        (* Default: the referenced table's primary key columns. *)
        List.filter_map
          (fun (c : Schema.column) ->
            if c.Schema.primary_key then Some c.Schema.col_name else None)
          target.Table.schema.Schema.columns
      | cs -> cs
    in
    let here_indices =
      List.map
        (fun n ->
          match Schema.column_index schema n with
          | Some i -> i
          | None -> err "unknown column %s" n)
        cols_here
    in
    let target_indices =
      List.map
        (fun n ->
          match Schema.column_index target.Table.schema n with
          | Some i -> i
          | None -> err "unknown referenced column %s" n)
        target_cols
    in
    if List.length here_indices <> List.length target_indices then
      err "foreign key arity mismatch";
    let values = List.map (fun i -> row.(i)) here_indices in
    if List.exists Value.is_null values then ()
    else
      let found =
        let ok = ref false in
        Vec.iter
          (fun trow ->
            if
              List.for_all2
                (fun v ti -> Value.equal v trow.(ti))
                values target_indices
            then ok := true)
          target.Table.rows;
        !ok
      in
      if not found then
        err "foreign key violation: no matching row in %s"
          spec.Ast.ref_table.Ast.name
  in
  List.iteri
    (fun i (c : Schema.column) ->
      match c.Schema.references with
      | Some spec ->
        ignore i;
        check_reference [ c.Schema.col_name ] spec
      | None -> ())
    schema.Schema.columns;
  List.iter (fun (cols, spec) -> check_reference cols spec) schema.Schema.foreign_keys

let default_value catalog (c : Schema.column) =
  match c.Schema.default with
  | Some e -> Value.coerce c.Schema.col_type (eval_expr catalog empty_env e)
  | None -> Value.Null

let insert catalog (ins : Ast.insert) =
  let table = find_base_table catalog ins.Ast.table in
  let schema = table.Table.schema in
  let target_columns =
    match ins.Ast.columns with
    | [] -> Schema.column_names schema
    | cols -> cols
  in
  let build_row values =
    if List.length values <> List.length target_columns then
      err "INSERT arity mismatch";
    let row =
      Array.of_list (List.map (default_value catalog) schema.Schema.columns)
    in
    List.iter2
      (fun col v ->
        match Schema.column_index schema col with
        | None -> err "unknown column %s" col
        | Some i ->
          let ty = (List.nth schema.Schema.columns i).Schema.col_type in
          row.(i) <- Value.coerce ty v)
      target_columns values;
    row
  in
  let rows =
    match ins.Ast.source with
    | Ast.Insert_defaults -> [ [] ]
    | Ast.Insert_values rows ->
      List.map (List.map (eval_expr catalog empty_env)) rows
    | Ast.Insert_query q -> (query catalog q).rows
  in
  let built =
    List.map
      (fun values ->
        match ins.Ast.source with
        | Ast.Insert_defaults ->
          Array.of_list (List.map (default_value catalog) schema.Schema.columns)
        | _ -> build_row values)
      rows
  in
  List.iter
    (fun row ->
      check_constraints catalog table row;
      Table.insert table row)
    built;
  List.length built

let update catalog (u : Ast.update) =
  let table = find_base_table catalog u.Ast.table in
  let schema = table.Table.schema in
  let cols = List.map (fun c -> (Some schema.Schema.name, c)) (Schema.column_names schema) in
  let count = ref 0 in
  Vec.map_in_place
    (fun row ->
      let env = env_of_row cols (Array.to_list row) in
      let affected =
        match u.Ast.update_where with
        | None -> true
        | Some c -> tv_is_true (eval_cond catalog env c)
      in
      if not affected then row
      else begin
        incr count;
        let fresh = Array.copy row in
        List.iter
          (fun (sc : Ast.set_clause) ->
            match Schema.column_index schema sc.Ast.target with
            | None -> err "unknown column %s" sc.Ast.target
            | Some i ->
              let column = List.nth schema.Schema.columns i in
              let v =
                match sc.Ast.value with
                | None -> default_value catalog column
                | Some e -> Value.coerce column.Schema.col_type (eval_expr catalog env e)
              in
              fresh.(i) <- v)
          u.Ast.assignments;
        (* NOT NULL and CHECK revalidation (uniqueness is not re-checked on
           update: good enough for the reproduction's workloads). *)
        List.iteri
          (fun i (c : Schema.column) ->
            if c.Schema.not_null && Value.is_null fresh.(i) then
              err "column %s may not be null" c.Schema.col_name)
          schema.Schema.columns;
        let env' = env_of_row cols (Array.to_list fresh) in
        List.iter
          (fun check ->
            match eval_cond catalog env' check with
            | F -> err "CHECK constraint violated on %s" schema.Schema.name
            | T | U -> ())
          schema.Schema.checks;
        fresh
      end)
    table.Table.rows;
  !count

let delete catalog (d : Ast.delete) =
  let table = find_base_table catalog d.Ast.table in
  let schema = table.Table.schema in
  let cols = List.map (fun c -> (Some schema.Schema.name, c)) (Schema.column_names schema) in
  Vec.filter_in_place
    (fun row ->
      let env = env_of_row cols (Array.to_list row) in
      match d.Ast.delete_where with
      | None -> false
      | Some c -> not (tv_is_true (eval_cond catalog env c)))
    table.Table.rows

let merge catalog (m : Ast.merge) =
  let target = find_base_table catalog m.Ast.target in
  let schema = target.Table.schema in
  let target_qualifier =
    Option.value ~default:m.Ast.target.Ast.name m.Ast.target_alias
  in
  let target_cols =
    List.map (fun c -> (Some target_qualifier, c)) (Schema.column_names schema)
  in
  let source = rel_of_table_ref catalog ~outer:None m.Ast.source in
  let affected = ref 0 in
  List.iter
    (fun source_row ->
      let source_env = env_of_row source.cols source_row in
      (* Find matching target rows under the ON condition. *)
      let matched = ref false in
      Vec.map_in_place
        (fun trow ->
          let env =
            env_of_row (target_cols @ source.cols) (Array.to_list trow @ source_row)
          in
          if tv_is_true (eval_cond catalog env m.Ast.on) then begin
            matched := true;
            match
              List.find_opt
                (function Ast.When_matched_update _ -> true | _ -> false)
                m.Ast.actions
            with
            | Some (Ast.When_matched_update sets) ->
              incr affected;
              let fresh = Array.copy trow in
              List.iter
                (fun (sc : Ast.set_clause) ->
                  match Schema.column_index schema sc.Ast.target with
                  | None -> err "unknown column %s" sc.Ast.target
                  | Some i ->
                    let column = List.nth schema.Schema.columns i in
                    let v =
                      match sc.Ast.value with
                      | None -> default_value catalog column
                      | Some e ->
                        Value.coerce column.Schema.col_type (eval_expr catalog env e)
                    in
                    fresh.(i) <- v)
                sets;
              fresh
            | _ -> trow
          end
          else trow)
        target.Table.rows;
      if not !matched then
        match
          List.find_opt
            (function Ast.When_not_matched_insert _ -> true | _ -> false)
            m.Ast.actions
        with
        | Some (Ast.When_not_matched_insert (cols, values)) ->
          incr affected;
          let columns =
            match cols with [] -> Schema.column_names schema | cs -> cs
          in
          if List.length columns <> List.length values then
            err "MERGE INSERT arity mismatch";
          let row =
            Array.of_list (List.map (default_value catalog) schema.Schema.columns)
          in
          List.iter2
            (fun col e ->
              match Schema.column_index schema col with
              | None -> err "unknown column %s" col
              | Some i ->
                let column = List.nth schema.Schema.columns i in
                row.(i) <-
                  Value.coerce column.Schema.col_type (eval_expr catalog source_env e))
            columns values;
          check_constraints catalog target row;
          Table.insert target row
        | _ -> ())
    source.rows;
  !affected

(* --- EXPLAIN ------------------------------------------------------------------------ *)

(* A one-column textual description of the (naive) evaluation strategy. *)
let explain catalog (q : Ast.query) : result_set =
  let lines = ref [] in
  let emit depth fmt =
    Printf.ksprintf
      (fun s -> lines := (String.make (2 * depth) ' ' ^ s) :: !lines)
      fmt
  in
  let rec go_query depth (q : Ast.query) =
    (match q.Ast.with_ with
     | None -> ()
     | Some wc ->
       List.iter
         (fun (cte : Ast.cte) ->
           emit depth "materialize CTE %s%s" cte.Ast.cte_name
             (if wc.Ast.recursive then " (recursive fixpoint)" else "");
           go_query (depth + 1) cte.Ast.cte_query)
         wc.Ast.ctes);
    go_body depth q.Ast.body;
    if q.Ast.order_by <> [] then
      emit depth "sort by %d key(s)" (List.length q.Ast.order_by);
    (match q.Ast.fetch with
     | Some (Ast.Fetch_first n) | Some (Ast.Limit n) -> emit depth "take first %d" n
     | None -> ())
  and go_body depth = function
    | Ast.Select s ->
      List.iter (go_ref depth) s.Ast.from;
      (match s.Ast.where with
       | Some c -> emit depth "filter: %s" (Sql_printer.cond c)
       | None -> ());
      if s.Ast.group_by <> [] then
        emit depth "group by %d key(s)" (List.length s.Ast.group_by);
      (match s.Ast.having with
       | Some c -> emit depth "having: %s" (Sql_printer.cond c)
       | None -> ());
      emit depth "project %d item(s)%s"
        (List.length s.Ast.projection)
        (if s.Ast.select_quantifier = Some Ast.Distinct then " distinct" else "")
    | Ast.Set_operation { op; corresponding; lhs; rhs; _ } ->
      emit depth "%s%s of:"
        (match op with
         | Ast.Union -> "union"
         | Ast.Except -> "except"
         | Ast.Intersect -> "intersect")
        (if corresponding then " (corresponding)" else "");
      go_body (depth + 1) lhs;
      go_body (depth + 1) rhs
    | Ast.Values rows -> emit depth "constant table (%d rows)" (List.length rows)
    | Ast.Paren_query q -> go_query depth q
  and go_ref depth = function
    | Ast.Table (name, corr) ->
      let rows =
        match Catalog.find catalog name.Ast.name with
        | Some (Catalog.Base_table t) ->
          Printf.sprintf "%d rows" (Table.row_count t)
        | Some (Catalog.View _) -> "view"
        | None -> "unknown"
      in
      emit depth "scan %s (%s)%s" name.Ast.name rows
        (match corr with
         | Some c -> Printf.sprintf " as %s" c.Ast.alias
         | None -> "")
    | Ast.Derived_table (q, corr) ->
      emit depth "derived table as %s:" corr.Ast.alias;
      go_query (depth + 1) q
    | Ast.Joined { lhs; kind; rhs; condition } ->
      emit depth "nested-loop %s join%s:"
        (match kind with
         | Ast.Inner -> "inner"
         | Ast.Left_outer -> "left outer"
         | Ast.Right_outer -> "right outer"
         | Ast.Full_outer -> "full outer"
         | Ast.Cross -> "cross"
         | Ast.Natural -> "natural")
        (match condition with
         | Some (Ast.On c) -> " on " ^ Sql_printer.cond c
         | Some (Ast.Using cols) -> " using (" ^ String.concat ", " cols ^ ")"
         | None -> "");
      go_ref (depth + 1) lhs;
      go_ref (depth + 1) rhs
  in
  go_query 0 q;
  { columns = [ "plan" ]; rows = List.rev_map (fun l -> [ Value.Str l ]) !lines }

(* --- Statement dispatch ------------------------------------------------------------------------ *)

let run_query catalog q = query catalog q

let run_statement catalog (stmt : Ast.statement) : outcome =
  match stmt with
  | Ast.Query_stmt q -> Rows (query catalog q)
  | Ast.Insert_stmt i -> Affected (insert catalog i)
  | Ast.Update_stmt u -> Affected (update catalog u)
  | Ast.Delete_stmt d -> Affected (delete catalog d)
  | Ast.Merge_stmt m -> Affected (merge catalog m)
  | Ast.Create_table_stmt ct -> (
    match Schema.of_create_table ct with
    | Error msg -> err "%s" msg
    | Ok schema -> (
      match Catalog.add_table catalog (Table.create schema) with
      | Ok () -> Done (Printf.sprintf "table %s created" schema.Schema.name)
      | Error msg -> err "%s" msg))
  | Ast.Create_view_stmt cv -> (
    match Catalog.add_view catalog cv with
    | Ok () -> Done (Printf.sprintf "view %s created" cv.Ast.view_name.Ast.name)
    | Error msg -> err "%s" msg)
  | Ast.Drop_stmt d -> (
    let name = d.Ast.drop_name.Ast.name in
    (match d.Ast.drop_kind, Catalog.find catalog name with
     | _, None -> err "unknown relation %s" name
     | Ast.Drop_table, Some (Catalog.View _) -> err "%s is a view" name
     | Ast.Drop_view, Some (Catalog.Base_table _) -> err "%s is a table" name
     | _, Some _ -> ());
    match Catalog.drop catalog name with
    | Ok () -> Done (Printf.sprintf "%s dropped" name)
    | Error msg -> err "%s" msg)
  | Ast.Alter_table_stmt a -> (
    let table = find_base_table catalog a.Ast.altered in
    let schema = table.Table.schema in
    match a.Ast.action with
    | Ast.Add_column def ->
      if Schema.column_index schema def.Ast.column <> None then
        err "column %s already exists" def.Ast.column
      else begin
        let column =
          {
            Schema.col_name = def.Ast.column;
            col_type = def.Ast.ty;
            not_null = List.mem Ast.C_not_null def.Ast.constraints;
            primary_key = false;
            unique = List.mem Ast.C_unique def.Ast.constraints;
            default = def.Ast.default;
            references = None;
          }
        in
        let fresh_schema =
          { schema with Schema.columns = schema.Schema.columns @ [ column ] }
        in
        let fill = default_value catalog column in
        let fresh = Table.create fresh_schema in
        Vec.iter
          (fun row -> Table.insert fresh (Array.append row [| fill |]))
          table.Table.rows;
        Catalog.replace_table catalog fresh;
        Done (Printf.sprintf "column %s added" def.Ast.column)
      end
    | Ast.Drop_column (name, _) -> (
      match Schema.column_index schema name with
      | None -> err "unknown column %s" name
      | Some i ->
        let fresh_schema =
          {
            schema with
            Schema.columns = List.filteri (fun j _ -> j <> i) schema.Schema.columns;
          }
        in
        let fresh = Table.create fresh_schema in
        Vec.iter
          (fun row ->
            Table.insert fresh
              (Array.of_list
                 (List.filteri (fun j _ -> j <> i) (Array.to_list row))))
          table.Table.rows;
        Catalog.replace_table catalog fresh;
        Done (Printf.sprintf "column %s dropped" name))
    | Ast.Set_column_default (name, e) -> (
      match Schema.column_index schema name with
      | None -> err "unknown column %s" name
      | Some i ->
        let fresh_schema =
          {
            schema with
            Schema.columns =
              List.mapi
                (fun j (c : Schema.column) ->
                  if j = i then { c with Schema.default = Some e } else c)
                schema.Schema.columns;
          }
        in
        Catalog.replace_table catalog { table with Table.schema = fresh_schema };
        Done (Printf.sprintf "default set for %s" name))
    | Ast.Drop_column_default name -> (
      match Schema.column_index schema name with
      | None -> err "unknown column %s" name
      | Some i ->
        let fresh_schema =
          {
            schema with
            Schema.columns =
              List.mapi
                (fun j (c : Schema.column) ->
                  if j = i then { c with Schema.default = None } else c)
                schema.Schema.columns;
          }
        in
        Catalog.replace_table catalog { table with Table.schema = fresh_schema };
        Done (Printf.sprintf "default dropped for %s" name))
    | Ast.Add_constraint tc -> (
      match tc.Ast.body with
      | Ast.T_check c ->
        let fresh_schema =
          { schema with Schema.checks = schema.Schema.checks @ [ c ] }
        in
        Catalog.replace_table catalog { table with Table.schema = fresh_schema };
        Done "constraint added"
      | Ast.T_unique cols | Ast.T_primary_key cols ->
        let fresh_schema =
          { schema with Schema.unique_sets = schema.Schema.unique_sets @ [ cols ] }
        in
        Catalog.replace_table catalog { table with Table.schema = fresh_schema };
        Done "constraint added"
      | Ast.T_foreign_key (cols, spec) ->
        let fresh_schema =
          {
            schema with
            Schema.foreign_keys = schema.Schema.foreign_keys @ [ (cols, spec) ];
          }
        in
        Catalog.replace_table catalog { table with Table.schema = fresh_schema };
        Done "constraint added"))
  | Ast.Grant_stmt g ->
    List.iter
      (fun grantee ->
        Catalog.add_grant catalog
          {
            Catalog.privileges = g.Ast.privileges;
            on_table = g.Ast.grant_on.Ast.name;
            grantee;
            grant_option = g.Ast.with_grant_option;
          })
      g.Ast.grantees;
    Done "granted"
  | Ast.Revoke_stmt r ->
    let removed =
      List.fold_left
        (fun n grantee ->
          n
          + Catalog.remove_grants catalog ~on_table:r.Ast.revoke_on.Ast.name
              ~grantee ~privileges:r.Ast.revoked)
        0 r.Ast.revokees
    in
    Done (Printf.sprintf "revoked (%d grants removed)" removed)
  | Ast.Explain_stmt q -> Rows (explain catalog q)
  | Ast.Schema_stmt _ ->
    (* Single-schema engine: schema statements are accepted and ignored. *)
    Done "ok"
  | Ast.Sequence_stmt (Ast.Create_sequence { seq_name; seq_start; seq_increment }) -> (
    match
      Catalog.create_sequence catalog ~name:seq_name
        ~start:(Option.value ~default:1 seq_start)
        ~increment:(Option.value ~default:1 seq_increment)
    with
    | Ok () -> Done (Printf.sprintf "sequence %s created" seq_name)
    | Error msg -> err "%s" msg)
  | Ast.Sequence_stmt (Ast.Drop_sequence name) -> (
    match Catalog.drop_sequence catalog name with
    | Ok () -> Done (Printf.sprintf "sequence %s dropped" name)
    | Error msg -> err "%s" msg)
  | Ast.Transaction_stmt _ | Ast.Session_stmt _ ->
    err "transaction and session statements are handled by the Database layer"

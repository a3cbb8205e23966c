open Sql_ast

type result_set = {
  columns : string list;
  rows : Value.t list list;
}

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type outcome =
  | Rows of result_set
  | Affected of int
  | Done of string

(* Each statement is compiled once, against the catalog, into closures
   and then run. Compiling has no side effect and raises nothing: an
   error found while compiling (an unknown table, a column list of the
   wrong arity, an unresolvable column) becomes a closure that raises
   when, and only when, evaluation reaches it, so errors, sequence
   values and table contents come out as under a tree-walking
   evaluation of the same statement. Wherever that order is visible
   (errors, NEXT VALUE FOR), the closures evaluate operands in the order
   the former interpreter did, recorded at each site. *)

(* --- Three-valued logic ----------------------------------------------------- *)

type tv = T | F | U

let tv_of_bool b = if b then T else F
let tv_not = function T -> F | F -> T | U -> U
let tv_and a b =
  match a, b with F, _ | _, F -> F | T, T -> T | _ -> U
let tv_or a b =
  match a, b with T, _ | _, T -> T | F, F -> F | _ -> U
let tv_is_true = function T -> true | F | U -> false

let holds op c =
  match op with
  | Ast.Eq -> c = 0
  | Ast.Neq -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Gt -> c > 0
  | Ast.Le -> c <= 0
  | Ast.Ge -> c >= 0

(* [Value.compare_sql] as a truth value; the common cases skip its option. *)
let compare_tv op a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> U
  | Value.Int x, Value.Int y -> tv_of_bool (holds op (Int.compare x y))
  | Value.Str x, Value.Str y -> tv_of_bool (holds op (String.compare x y))
  | _ -> (
    match Value.compare_sql a b with None -> U | Some c -> tv_of_bool (holds op c))

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

(* --- Hashing under SQL equality ------------------------------------------------ *)

(* Numbers hash by their float value, so that [Int 1] and [Float 1.0]
   (equal under both [Value.equal] and [Value.compare_sql]) share a bucket;
   every candidate in a bucket is still confirmed with the exact
   comparison. Integral values hash as ints, which boxes nothing. *)
let mix n = (n * 0x2545F4914F6CDD1D) lxor (n lsr 29)

let hash_number f =
  if Float.is_integer f && Float.abs f < 1e18 then mix (int_of_float f)
  else Hashtbl.hash f

let hash_value = function
  | Value.Null -> 0
  | Value.Int n ->
    if n > -(1 lsl 53) && n < 1 lsl 53 then mix n else hash_number (float_of_int n)
  | Value.Float f -> hash_number f
  | Value.Str s -> Hashtbl.hash s
  | Value.Bool b -> if b then 1 else 2

let combine h v = (h * 31) + hash_value v

let hash_row row =
  let h = ref 0 in
  for i = 0 to Array.length row - 1 do
    h := combine !h (Array.unsafe_get row i)
  done;
  !h

(* Tables keyed by such hashes. *)
module Int_table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash h = h land max_int
end)

let rows_equal a b =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i = n || (Value.equal a.(i) b.(i) && go (i + 1)) in
  go 0

(* A set under an equality [hash] respects: [set_add s x] is [true] when
   no member equals [x], and then adds it. *)
type 'a set = {
  hash : 'a -> int;
  equal : 'a -> 'a -> bool;
  buckets : 'a list Int_table.t;
}

let new_set hash equal = { hash; equal; buckets = Int_table.create 8 }
let row_set () = new_set hash_row rows_equal

let set_mem s x =
  match Int_table.find s.buckets (s.hash x) with
  | bucket -> List.exists (s.equal x) bucket
  | exception Not_found -> false

let set_add s x =
  let h = s.hash x in
  match Int_table.find s.buckets h with
  | bucket ->
    if List.exists (s.equal x) bucket then false
    else begin
      Int_table.replace s.buckets h (x :: bucket);
      true
    end
  | exception Not_found ->
    Int_table.add s.buckets h [ x ];
    true

(* Keep the first of each run of equal rows, in order. *)
let dedupe_rows rows = List.filter (set_add (row_set ())) rows

(* --- Runtime environments ------------------------------------------------------- *)

(* One record per scope level, innermost first: the current row, the rows
   of the current group where aggregates may be evaluated, and the
   enclosing level. Column references are compiled to a (depth, slot)
   pair, so evaluation walks [up] a fixed number of times. *)
type env = {
  row : Value.t array;
  group : env list;
  up : env;
}

let rec top = { row = [||]; group = []; up = top }

let row_env row up = { row; group = []; up }

(* A level's rows can be narrower than its columns only in a malformed
   state; report it as such rather than as an array bound. *)
let slot row i =
  if i < Array.length row then Array.unsafe_get row i else err "corrupt environment"

let column_reader depth i : env -> Value.t =
  match depth with
  | 0 -> fun env -> slot env.row i
  | 1 -> fun env -> slot env.up.row i
  | 2 -> fun env -> slot env.up.up.row i
  | d ->
    fun env ->
      let rec walk e d = if d = 0 then e else walk e.up (d - 1) in
      slot (walk env d).row i

(* --- Static scopes --------------------------------------------------------------- *)

(* A WITH-clause result in scope: its columns are known when the query is
   compiled, its rows only once the query runs. *)
type cte_binding = {
  cte_name : string;
  cte_cols : string list;
  mutable cte_rows : Value.t array list;
}

(* A subquery being compiled. It is [impure] — evaluated anew every time —
   when it reads a column of an enclosing query, calls NEXT VALUE FOR,
   reads the table the running statement writes, or reads a WITH result
   bound outside it ([outside]); otherwise it is evaluated at most once
   per statement. *)
type frame = {
  outside : cte_binding list;
  mutable impure : bool;
}

type scope =
  | Top
  | Level of (string option * string) array * scope
  | Boundary of frame * scope  (** where a subquery meets its enclosing scope *)

let qualified qualifier names = Array.of_list (List.map (fun c -> (qualifier, c)) names)

let find_column cols qualifier name =
  let n = Array.length cols in
  let rec go i =
    if i = n then -1
    else
      let q, c = cols.(i) in
      if
        String.equal c name
        && (match qualifier with
            | None -> true
            | Some want -> (match q with Some have -> String.equal want have | None -> false))
      then i
      else go (i + 1)
  in
  go 0

(* First match in the innermost level, then outward. *)
let rec resolve scope qualifier name depth =
  match scope with
  | Top -> None
  | Level (cols, up) ->
    let i = find_column cols qualifier name in
    if i >= 0 then Some (depth, i) else resolve up qualifier name (depth + 1)
  | Boundary (frame, up) -> (
    match resolve up qualifier name depth with
    | Some _ as found ->
      frame.impure <- true;
      found
    | None -> None)

type ctx = {
  catalog : Catalog.t;
  ctes : cte_binding list;  (** visible WITH results; the first match wins *)
  writes : string option;  (** the table the running statement modifies *)
  views : string list;  (** views being expanded, innermost first *)
  frames : frame list;  (** enclosing subqueries, innermost first *)
  joins : (Ast.table_ref * string) list ref;  (** join strategies, for EXPLAIN *)
}

let new_ctx ?writes catalog =
  { catalog; ctes = []; writes; views = []; frames = []; joins = ref [] }

let taint_all ctx = List.iter (fun f -> f.impure <- true) ctx.frames

(* --- Compiled forms ---------------------------------------------------------------- *)

type cexpr = env -> Value.t
type ccond = env -> tv

(* A query: its result columns, and a function from the enclosing
   environment to its rows. *)
type cquery = {
  cols : string list;
  run : env -> Value.t array list;
}

(* Rows of a FROM item: a base table's live storage (nothing else runs
   while a query reads it) or a computed list. *)
type rowset =
  | Stored of Value.t array Vec.t
  | Listed of Value.t array list

let iter_rowset f = function Stored v -> Vec.iter f v | Listed l -> List.iter f l

let rowset_length = function Stored v -> Vec.length v | Listed l -> List.length l

let rowset_to_array = function
  | Stored v -> Array.init (Vec.length v) (Vec.get v)
  | Listed l -> Array.of_list l

(* A FROM item: qualified columns, and a function from the enclosing
   environment to its rows, run before anything else in the SELECT. *)
type source = {
  scols : (string option * string) array;
  open_ : env -> rowset;
}

let failing_source msg = { scols = [||]; open_ = (fun _ -> raise (Error msg)) }

(* A SELECT: result columns, source columns, and its produced rows, each
   paired with the environment it was produced in (the source row, or the
   group's representative carrying the group) for ORDER BY. *)
type cselect = {
  sel_cols : string list;
  src_cols : (string option * string) array;
  aggregated : bool;
  produce : env -> (Value.t array * env) list;
}

(* --- Scalar functions --------------------------------------------------------------- *)

let extract_field field s =
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

(* [name] is upper-cased; [args] are evaluated, left to right. *)
let call name args =
  let str1 f =
    match args with
    | [ Value.Null ] -> Value.Null
    | [ Value.Str s ] -> f s
    | _ -> err "%s expects one string argument" name
  in
  match name, args with
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

let trim side removed_char s =
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
  match side with
  | Some Ast.Trim_leading -> trim_left s
  | Some Ast.Trim_trailing -> trim_right s
  | Some Ast.Trim_both | None -> trim_left (trim_right s)

let escape_char = function
  | Some (Value.Str e) when String.length e = 1 -> Some e.[0]
  | None -> None
  | Some Value.Null -> None
  | Some _ -> err "ESCAPE must be a single character"

(* --- Aggregates ------------------------------------------------------------------------ *)

(* [iter f] feeds the aggregate's non-null argument values, in row order
   (after DISTINCT); folds run in that order, and EVERY/ANY stop where
   [List.for_all]/[List.exists] would. *)
let fold_aggregate func (iter : (Value.t -> unit) -> unit) =
  match func with
  | Ast.F_count ->
    let n = ref 0 in
    iter (fun _ -> incr n);
    Value.Int !n
  | Ast.F_sum ->
    let acc = ref Value.Null and seen = ref false in
    iter (fun v ->
        acc := Value.add (if !seen then !acc else Value.Int 0) v;
        seen := true);
    !acc
  | Ast.F_avg ->
    let acc = ref (Value.Float 0.) and n = ref 0 in
    iter (fun v ->
        acc := Value.add !acc v;
        incr n);
    if !n = 0 then Value.Null
    else Value.div !acc (Value.Float (float_of_int !n))
  | Ast.F_min | Ast.F_max ->
    let better = if func = Ast.F_min then ( < ) else ( > ) in
    let acc = ref Value.Null in
    iter (fun v ->
        match !acc with
        | Value.Null -> acc := v
        | a -> if better (Value.compare_total v a) 0 then acc := v);
    !acc
  | Ast.F_every | Ast.F_any ->
    let every = func = Ast.F_every in
    let name = if every then "EVERY" else "ANY" in
    let seen = ref false and decided = ref false in
    iter (fun v ->
        seen := true;
        if not !decided then
          match v with
          | Value.Bool b -> if b <> every then decided := true
          | _ -> err "%s expects booleans" name);
    if not !seen then Value.Null
    else Value.Bool (if !decided then not every else every)

(* Distinct values, first occurrence kept, under [Value.equal]. *)
let distinct_values values = List.filter (set_add (new_set hash_value Value.equal)) values

(* --- Expressions and conditions ------------------------------------------------------- *)

(* [agg] is the scope aggregate arguments compile in (the SELECT's source
   rows), where aggregates may appear; elsewhere they raise when reached. *)
let rec compile_expr ctx scope ~agg (e : Ast.expr) : cexpr =
  let expr = compile_expr ctx scope ~agg in
  match e with
  | Ast.Lit l ->
    let v = Value.of_literal l in
    fun _ -> v
  | Ast.Column (qualifier, name) -> (
    match resolve scope qualifier name 0 with
    | Some (depth, i) -> column_reader depth i
    | None ->
      let label = match qualifier with Some q -> q ^ "." ^ name | None -> name in
      fun _ -> err "unknown column %s" label)
  | Ast.Unary (Ast.S_plus, e) -> expr e
  | Ast.Unary (Ast.S_minus, e) ->
    let c = expr e in
    fun env -> Value.sub (Value.Int 0) (c env)
  | Ast.Binop (op, a, b) ->
    let ca = expr a and cb = expr b in
    let f =
      match op with
      | Ast.Add -> Value.add
      | Ast.Sub -> Value.sub
      | Ast.Mul -> Value.mul
      | Ast.Div -> Value.div
      | Ast.Concat -> Value.concat
    in
    fun env ->
      let va = ca env in
      let vb = cb env in
      f va vb
  | Ast.Aggregate a -> (
    match agg with
    | None -> fun _ -> err "aggregate function outside GROUP BY context"
    | Some arg_scope -> compile_aggregate ctx arg_scope a)
  | Ast.Call (name, args) ->
    let cargs = List.map expr args in
    let name = String.uppercase_ascii name in
    fun env -> call name (List.map (fun c -> c env) cargs)
  | Ast.Substring { arg; from_; for_ } -> (
    let ca = expr arg and cf = expr from_ and cl = Option.map expr for_ in
    fun env ->
      match ca env, cf env, (match cl with None -> None | Some c -> Some (c env)) with
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
    let cn = expr needle and ch = expr haystack in
    fun env ->
      match cn env, ch env with
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
    let ca = expr arg and cr = Option.map expr removed in
    fun env ->
      match ca env with
      | Value.Null -> Value.Null
      | Value.Str s ->
        let removed_char =
          match Option.map (fun c -> c env) cr with
          | None -> ' '
          | Some (Value.Str r) when String.length r = 1 -> r.[0]
          | Some Value.Null -> ' '
          | Some _ -> err "TRIM character must be a single-character string"
        in
        Value.Str (trim side removed_char s)
      | _ -> err "TRIM applies to strings")
  | Ast.Extract { field; arg } -> (
    (* Date/time values are ISO-8601 strings: YYYY-MM-DD[ HH:MM:SS]. *)
    let ca = expr arg in
    fun env ->
      match ca env with
      | Value.Null -> Value.Null
      | Value.Str s -> extract_field field s
      | _ -> err "EXTRACT applies to datetime strings")
  | Ast.Case_simple { operand; branches; else_ } ->
    let co = expr operand in
    let branches = List.map (fun (w, t) -> (expr w, expr t)) branches in
    let ce = Option.map expr else_ in
    fun env ->
      let v = co env in
      let rec pick = function
        | [] -> (match ce with None -> Value.Null | Some c -> c env)
        | (w, t) :: rest -> if Value.equal v (w env) then t env else pick rest
      in
      pick branches
  | Ast.Case_searched { branches; else_ } ->
    let branches =
      List.map (fun (w, t) -> (compile_cond ctx scope ~agg w, expr t)) branches
    in
    let ce = Option.map expr else_ in
    fun env ->
      let rec pick = function
        | [] -> (match ce with None -> Value.Null | Some c -> c env)
        | (w, t) :: rest -> if tv_is_true (w env) then t env else pick rest
      in
      pick branches
  | Ast.Cast (e, ty) ->
    let c = expr e in
    fun env -> Value.coerce ty (c env)
  | Ast.Window_call { wfunc; _ } ->
    fun _ -> err "window function %s is parse-only (not executed by the engine)" wfunc
  | Ast.Parameter n ->
    fun _ -> err "unbound dynamic parameter ?%d (bind values with Params.bind)" n
  | Ast.Next_value name -> (
    taint_all ctx;
    let catalog = ctx.catalog in
    fun _ ->
      match Catalog.next_value catalog name with
      | Ok v -> Value.Int v
      | Error msg -> err "%s" msg)
  | Ast.Overlay { arg; placing; from_; for_ } -> (
    let ca = expr arg and cp = expr placing and cf = expr from_ in
    let cl = Option.map expr for_ in
    fun env ->
      match
        ca env, cp env, cf env, (match cl with None -> None | Some c -> Some (c env))
      with
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
    let sub = compile_subquery ctx scope q in
    fun env ->
      match sub env with
      | [] -> Value.Null
      | [ row ] when Array.length row = 1 -> row.(0)
      | [ _ ] -> err "scalar subquery returned more than one column"
      | _ -> err "scalar subquery returned more than one row")

(* Aggregate arguments are evaluated over the group's rows, all of them
   before the fold. A plain column cannot fail, so its values are folded
   as they are read. *)
and compile_aggregate ctx arg_scope (a : Ast.aggregate) : cexpr =
  let distinct = a.Ast.agg_quantifier = Some Ast.Distinct in
  match a.Ast.arg with
  | Ast.A_star ->
    if distinct then fun env ->
      fold_aggregate a.Ast.func (fun f -> if env.group <> [] then f (Value.Int 1))
    else fun env ->
      fold_aggregate a.Ast.func (fun f -> List.iter (fun _ -> f (Value.Int 1)) env.group)
  | Ast.A_expr (Ast.Column (q, name)) when (not distinct) && resolve arg_scope q name 0 <> None ->
    let read = compile_expr ctx arg_scope ~agg:None (Ast.Column (q, name)) in
    fun env ->
      fold_aggregate a.Ast.func (fun f ->
          List.iter
            (fun member ->
              match read member with Value.Null -> () | v -> f v)
            env.group)
  | Ast.A_expr e ->
    let c = compile_expr ctx arg_scope ~agg:None e in
    fun env ->
      let values =
        List.filter (fun v -> not (Value.is_null v)) (List.map c env.group)
      in
      let values = if distinct then distinct_values values else values in
      fold_aggregate a.Ast.func (fun f -> List.iter f values)

and compile_cond ctx scope ~agg (c : Ast.cond) : ccond =
  let expr = compile_expr ctx scope ~agg in
  let cond = compile_cond ctx scope ~agg in
  match c with
  | Ast.Comparison (op, a, b) ->
    let ca = expr a and cb = expr b in
    fun env ->
      let vb = cb env in
      let va = ca env in
      compare_tv op va vb
  | Ast.Quantified_comparison { op; lhs; quantifier; subquery } ->
    let cl = expr lhs and sub = compile_subquery ctx scope subquery in
    fun env ->
      let v = cl env in
      let results =
        List.map
          (fun row ->
            if Array.length row = 1 then compare_tv op v row.(0)
            else err "quantified subquery must return one column")
          (sub env)
      in
      (match quantifier with
       | Ast.Q_all -> List.fold_left tv_and T results
       | Ast.Q_some -> List.fold_left tv_or F results)
  | Ast.Between { negated; symmetric; arg; low; high } ->
    let ca = expr arg and clo = expr low and chi = expr high in
    fun env ->
      let v = ca env in
      let lo = clo env in
      let hi = chi env in
      let lo, hi =
        (* SYMMETRIC accepts the bounds in either order. *)
        if symmetric && Value.compare_sql lo hi = Some 1 then (hi, lo) else (lo, hi)
      in
      let upper = compare_tv Ast.Le v hi in
      let r = tv_and (compare_tv Ast.Ge v lo) upper in
      if negated then tv_not r else r
  | Ast.In_list { negated; arg; values } ->
    let ca = expr arg and cvs = List.map expr values in
    fun env ->
      let v = ca env in
      let r = List.fold_left (fun acc c -> tv_or acc (compare_tv Ast.Eq v (c env))) F cvs in
      if negated then tv_not r else r
  | Ast.In_subquery { negated; arg; subquery } ->
    let ca = expr arg and sub = compile_subquery ctx scope subquery in
    fun env ->
      let v = ca env in
      let r =
        List.fold_left
          (fun acc row ->
            if Array.length row = 1 then tv_or acc (compare_tv Ast.Eq v row.(0))
            else err "IN subquery must return one column")
          F (sub env)
      in
      if negated then tv_not r else r
  | Ast.Like { negated; arg; pattern; escape } ->
    let ca = expr arg in
    let test =
      match pattern, escape with
      | Ast.Lit (Ast.L_string p), None -> constant_like ca (Like.compile p)
      | Ast.Lit (Ast.L_string p), Some (Ast.Lit (Ast.L_string e)) when String.length e = 1 ->
        constant_like ca (Like.compile ~escape:e.[0] p)
      | _ -> (
        let cp = expr pattern and ce = Option.map expr escape in
        fun env ->
          match ca env, cp env, (match ce with None -> None | Some c -> Some (c env)) with
          | Value.Null, _, _ | _, Value.Null, _ -> U
          | Value.Str s, Value.Str p, esc ->
            let escape = escape_char esc in
            tv_of_bool (Like.like ?escape ~pattern:p s)
          | _, _, _ -> err "LIKE applies to strings")
    in
    if negated then fun env -> tv_not (test env) else test
  | Ast.Is_null { negated; arg } ->
    let ca = expr arg in
    fun env ->
      let r = tv_of_bool (Value.is_null (ca env)) in
      if negated then tv_not r else r
  | Ast.Is_distinct_from { negated; lhs; rhs } ->
    let cl = expr lhs and cr = expr rhs in
    fun env ->
      let vr = cr env in
      let vl = cl env in
      let r = tv_of_bool (not (Value.equal vl vr)) in
      if negated then tv_not r else r
  | Ast.Exists q ->
    let sub = compile_subquery ctx scope q in
    fun env -> tv_of_bool (sub env <> [])
  | Ast.Unique q ->
    let sub = compile_subquery ctx scope q in
    fun env ->
      let seen = row_set () in
      tv_of_bool (List.for_all (set_add seen) (sub env))
  | Ast.Not c ->
    let c = cond c in
    fun env -> tv_not (c env)
  | Ast.And (a, b) ->
    let ca = cond a and cb = cond b in
    fun env ->
      let vb = cb env in
      let va = ca env in
      tv_and va vb
  | Ast.Or (a, b) ->
    let ca = cond a and cb = cond b in
    fun env ->
      let vb = cb env in
      let va = ca env in
      tv_or va vb
  | Ast.Is_truth { negated; arg; truth } ->
    let c = cond arg in
    fun env ->
      let v = c env in
      let r =
        tv_of_bool
          (match truth with
           | Ast.True -> v = T
           | Ast.False -> v = F
           | Ast.Unknown -> v = U)
      in
      if negated then tv_not r else r
  | Ast.Overlaps (a, b) ->
    (* simplified: full OVERLAPS needs period values, out of engine scope *)
    let ca = expr a and cb = expr b in
    fun env ->
      let vb = cb env in
      let va = ca env in
      compare_tv Ast.Eq va vb
  | Ast.Similar { negated; arg; pattern } -> (
    (* Approximated by LIKE semantics over the shared '%'/'_' wildcards. *)
    let ca = expr arg and cp = expr pattern in
    fun env ->
      let r =
        match ca env, cp env with
        | Value.Null, _ | _, Value.Null -> U
        | Value.Str s, Value.Str p -> tv_of_bool (Like.like ~pattern:p s)
        | _, _ -> err "SIMILAR applies to strings"
      in
      if negated then tv_not r else r)
  | Ast.Bool_expr e -> (
    let c = expr e in
    fun env ->
      match c env with
      | Value.Bool b -> tv_of_bool b
      | Value.Null -> U
      | _ -> err "boolean expression expected in condition")

and constant_like ca compiled env =
  match ca env with
  | Value.Null -> U
  | Value.Str s -> tv_of_bool (Like.matches compiled s)
  | _ -> err "LIKE applies to strings"

(* A subquery sees the current scope as its enclosing one. When it turns
   out pure (see [frame]), its rows are computed on first use and kept. *)
and compile_subquery ctx scope q : env -> Value.t array list =
  let frame = { outside = ctx.ctes; impure = false } in
  let cq =
    compile_query { ctx with frames = frame :: ctx.frames } (Boundary (frame, scope)) q
  in
  if frame.impure then cq.run
  else begin
    let cache = ref None in
    fun env ->
      match !cache with
      | Some rows -> rows
      | None ->
        let rows = cq.run env in
        cache := Some rows;
        rows
  end

(* --- FROM clause ------------------------------------------------------------------------- *)

and find_cte ctx name = List.find_opt (fun b -> String.equal b.cte_name name) ctx.ctes

(* A stored relation (base table or WITH result) under a correlation: an
   explicit column list must name every column. *)
and stored_source ~name ~alias ~columns ~override rows =
  let qualifier = Some (Option.value ~default:name alias) in
  match override with
  | [] -> { scols = qualified qualifier columns; open_ = rows }
  | cols ->
    if List.length cols <> List.length columns then
      failing_source (Printf.sprintf "column list arity mismatch for %s" name)
    else { scols = qualified qualifier cols; open_ = rows }

(* A query's result under a name: evaluated, then its column list checked. *)
and query_source ~name ~qualifier (cq : cquery) override =
  let names, arity_ok =
    match override with
    | [] -> (cq.cols, true)
    | cols -> (cols, List.length cols = List.length cq.cols)
  in
  {
    scols = qualified (Some qualifier) names;
    open_ =
      (fun env ->
        let rows = cq.run env in
        if not arity_ok then err "column list arity mismatch for %s" name;
        Listed rows);
  }

and compile_table_ref ctx scope (tr : Ast.table_ref) : source =
  match tr with
  | Ast.Table (oname, corr) -> (
    let name = oname.Ast.name in
    let alias = Option.map (fun c -> c.Ast.alias) corr in
    let override = match corr with Some c -> c.Ast.columns | None -> [] in
    match find_cte ctx name with
    | Some b ->
      List.iter (fun f -> if List.memq b f.outside then f.impure <- true) ctx.frames;
      stored_source ~name ~alias ~columns:b.cte_cols ~override (fun _ ->
          Listed b.cte_rows)
    | None -> (
      match Catalog.find ctx.catalog name with
      | None -> failing_source ("unknown table " ^ name)
      | Some (Catalog.Base_table table) ->
        if ctx.writes = Some name then taint_all ctx;
        stored_source ~name ~alias
          ~columns:(Schema.column_names table.Table.schema)
          ~override
          (fun _ -> Stored table.Table.rows)
      | Some (Catalog.View view) ->
        if List.mem name ctx.views then
          failing_source (Printf.sprintf "view %s is defined in terms of itself" name)
        else
          let cq =
            compile_query { ctx with views = name :: ctx.views } scope view.Ast.view_query
          in
          let override =
            match view.Ast.view_columns with [] -> override | cols -> cols
          in
          query_source ~name ~qualifier:(Option.value ~default:name alias) cq override))
  | Ast.Derived_table (q, corr) ->
    query_source ~name:corr.Ast.alias ~qualifier:corr.Ast.alias
      (compile_query ctx scope q) corr.Ast.columns
  | Ast.Joined { lhs; kind; rhs; condition } ->
    let left = compile_table_ref ctx scope lhs in
    let right = compile_table_ref ctx scope rhs in
    compile_join ctx scope tr kind condition left right

(* Equi-joins — ON conjunctions of [left column = right column], USING,
   NATURAL — hash the right input and probe it in left order; anything else
   tests every pair. Both emit the inner pairs in left-major order, then
   the unmatched left rows, then the unmatched right rows, and test each
   pair at most once. *)
and compile_join ctx scope tr kind condition left right : source =
  let nl = Array.length left.scols and nr = Array.length right.scols in
  let scols = Array.append left.scols right.scols in
  let by_name cols c = find_column cols None c in
  let strategy =
    match kind, condition with
    | Ast.Cross, _ -> `Nested (`Pairs (fun _ _ -> true))
    | Ast.Natural, _ ->
      let common =
        List.filter_map
          (fun (_, c) ->
            let r = by_name right.scols c in
            if r >= 0 then Some (by_name left.scols c, r) else None)
          (Array.to_list left.scols)
      in
      if common = [] then `Nested (`Pairs (fun _ _ -> true))
      else `Hash (`Equal, common)
    | _, Some (Ast.Using cs) ->
      let keys = List.map (fun c -> (by_name left.scols c, by_name right.scols c, c)) cs in
      if List.for_all (fun (l, r, _) -> l >= 0 && r >= 0) keys then
        `Hash (`Equal, List.map (fun (l, r, _) -> (l, r)) keys)
      else
        `Nested
          (`Pairs
             (fun lrow rrow ->
               List.for_all
                 (fun (l, r, c) ->
                   let lv = if l >= 0 then slot lrow l else err "unknown column %s" c in
                   let rv = if r >= 0 then slot rrow r else err "unknown column %s" c in
                   Value.equal lv rv && not (Value.is_null lv))
                 keys))
    | _, Some (Ast.On c) -> (
      let on_scope = Level (scols, scope) in
      let rec conjuncts = function
        | Ast.And (a, b) -> conjuncts a @ conjuncts b
        | c -> [ c ]
      in
      let side = function
        | Ast.Column (q, n) -> (
          match resolve on_scope q n 0 with
          | Some (0, i) -> if i < nl then `L i else `R (i - nl)
          | _ -> `Other)
        | _ -> `Other
      in
      let key = function
        | Ast.Comparison (Ast.Eq, a, b) -> (
          match side a, side b with
          | `L l, `R r | `R r, `L l -> Some (l, r)
          | _ -> None)
        | _ -> None
      in
      let keys = List.map key (conjuncts c) in
      if List.for_all Option.is_some keys then `Hash (`Compare, List.filter_map Fun.id keys)
      else `Nested (`On (compile_cond ctx on_scope ~agg:None c)))
    | _, None ->
      `Nested (`Pairs (fun _ _ -> err "join requires an ON or USING condition"))
  in
  ctx.joins :=
    (tr, match strategy with `Hash _ -> "hash" | `Nested _ -> "nested-loop") :: !(ctx.joins);
  let padded_left = kind = Ast.Left_outer || kind = Ast.Full_outer in
  let padded_right = kind = Ast.Right_outer || kind = Ast.Full_outer in
  let null_left = Array.make nl Value.Null and null_right = Array.make nr Value.Null in
  let finish inner lrows lmatched rrows rmatched =
    let out = ref inner in
    if padded_left then begin
      let i = ref 0 in
      iter_rowset
        (fun l ->
          if not lmatched.(!i) then out := Array.append l null_right :: !out;
          incr i)
        lrows
    end;
    if padded_right then
      Array.iteri
        (fun i r -> if not rmatched.(i) then out := Array.append null_left r :: !out)
        rrows;
    Listed (List.rev !out)
  in
  let open_ =
    match strategy with
    | `Nested test ->
      fun env ->
        let rrows = rowset_to_array (right.open_ env) in
        let lrows = left.open_ env in
        let lmatched = Array.make (rowset_length lrows) false in
        let rmatched = Array.make (Array.length rrows) false in
        let inner = ref [] and li = ref 0 in
        iter_rowset
          (fun l ->
            Array.iteri
              (fun ri r ->
                let hit =
                  match test with
                  | `Pairs f -> if f l r then Some (Array.append l r) else None
                  | `On c ->
                    let joined = Array.append l r in
                    if tv_is_true (c (row_env joined env)) then Some joined else None
                in
                match hit with
                | Some joined ->
                  lmatched.(!li) <- true;
                  rmatched.(ri) <- true;
                  inner := joined :: !inner
                | None -> ())
              rrows;
            incr li)
          lrows;
        finish !inner lrows lmatched rrows rmatched
    | `Hash (equality, keys) ->
      let lkeys = Array.of_list (List.map fst keys) in
      let rkeys = Array.of_list (List.map snd keys) in
      let nk = Array.length lkeys in
      let key_equal =
        match equality with
        | `Compare -> fun a b -> compare_tv Ast.Eq a b = T
        | `Equal -> fun a b -> Value.equal a b && not (Value.is_null a)
      in
      let rec has_null row ks i =
        i < nk && (Value.is_null (slot row ks.(i)) || has_null row ks (i + 1))
      in
      let rec hash row ks i h = if i = nk then h else hash row ks (i + 1) (combine h (slot row ks.(i))) in
      let rec same l r k =
        k = nk || (key_equal (slot l lkeys.(k)) (slot r rkeys.(k)) && same l r (k + 1))
      in
      fun env ->
        let rrows = rowset_to_array (right.open_ env) in
        let lrows = left.open_ env in
        if equality = `Compare then check_key_types lkeys rkeys lrows rrows;
        (* Buckets chain right rows through [next], in ascending order. *)
        let n = Array.length rrows in
        let size = ref 8 in
        while !size < 2 * n do size := 2 * !size done;
        let mask = !size - 1 in
        let heads = Array.make !size (-1) and next = Array.make (max n 1) (-1) in
        for ri = n - 1 downto 0 do
          let r = rrows.(ri) in
          if not (has_null r rkeys 0) then begin
            let b = hash r rkeys 0 0 land mask in
            next.(ri) <- heads.(b);
            heads.(b) <- ri
          end
        done;
        let lmatched = Array.make (rowset_length lrows) false in
        let rmatched = Array.make n false in
        let inner = ref [] and li = ref 0 in
        iter_rowset
          (fun l ->
            if not (has_null l lkeys 0) then begin
              let ri = ref heads.(hash l lkeys 0 0 land mask) in
              while !ri >= 0 do
                let r = rrows.(!ri) in
                if same l r 0 then begin
                  lmatched.(!li) <- true;
                  rmatched.(!ri) <- true;
                  inner := Array.append l r :: !inner
                end;
                ri := next.(!ri)
              done
            end;
            incr li)
          lrows;
        finish !inner lrows lmatched rrows rmatched
  in
  { scols; open_ }

(* The nested loop compares every left key with every right key, and
   [Value.compare_sql] raises on a number against a string, say. The hash
   join never compares such keys, so it raises that error itself when any
   left/right pair of a key column holds values of different kinds. *)
and check_key_types lkeys rkeys lrows rrows =
  let kind = function
    | Value.Null -> 0
    | Value.Int _ | Value.Float _ -> 1
    | Value.Str _ -> 2
    | Value.Bool _ -> 4
  in
  Array.iteri
    (fun k lk ->
      let lmask = ref 0 and rmask = ref 0 in
      iter_rowset (fun l -> lmask := !lmask lor kind (slot l lk)) lrows;
      Array.iter (fun r -> rmask := !rmask lor kind (slot r rkeys.(k))) rrows;
      let single m = m = 1 || m = 2 || m = 4 in
      if !lmask <> 0 && !rmask <> 0 && not (!lmask = !rmask && single !lmask) then
        raise (Value.Type_error "comparison between incompatible types"))
    lkeys

(* --- SELECT ---------------------------------------------------------------------------------- *)

and item_column_name item index =
  match item with
  | Ast.Expr_item (_, Some alias) -> alias
  | Ast.Expr_item (Ast.Column (_, name), None) -> name
  | Ast.Expr_item (_, None) | Ast.Star | Ast.Qualified_star _ ->
    Printf.sprintf "column%d" (index + 1)

(* The result columns, or the error evaluating them raises. *)
and projection_columns (sel : Ast.select) src_cols : (_, string) result =
  let exception Unknown of string in
  try
    Ok
      (List.concat
         (List.mapi
            (fun i item ->
              match item with
              | Ast.Star -> List.map snd (Array.to_list src_cols)
              | Ast.Qualified_star q ->
                let matching =
                  List.filter (fun (qual, _) -> qual = Some q) (Array.to_list src_cols)
                in
                if matching = [] then raise (Unknown q) else List.map snd matching
              | Ast.Expr_item _ -> [ item_column_name item i ])
            sel.Ast.projection))
  with Unknown q -> Error (Printf.sprintf "unknown qualifier %s" q)

and compile_projection ctx row_scope ~agg src_cols (sel : Ast.select) : env -> Value.t array =
  let parts =
    List.map
      (function
        | Ast.Star -> `Whole
        | Ast.Qualified_star q ->
          let slots = ref [] in
          Array.iteri (fun i (qual, _) -> if qual = Some q then slots := i :: !slots) src_cols;
          `Slots (Array.of_list (List.rev !slots))
        | Ast.Expr_item (e, _) -> `Expr (compile_expr ctx row_scope ~agg e))
      sel.Ast.projection
  in
  let nsrc = Array.length src_cols in
  let width =
    List.fold_left
      (fun n -> function `Whole -> n + nsrc | `Slots s -> n + Array.length s | `Expr _ -> n + 1)
      0 parts
  in
  let rec fill env out at = function
    | [] -> ()
    | `Whole :: rest ->
      Array.blit env.row 0 out at nsrc;
      fill env out (at + nsrc) rest
    | `Slots s :: rest ->
      for k = 0 to Array.length s - 1 do
        out.(at + k) <- slot env.row s.(k)
      done;
      fill env out (at + Array.length s) rest
    | `Expr c :: rest ->
      out.(at) <- c env;
      fill env out (at + 1) rest
  in
  match parts with
  | [ `Whole ] -> fun env -> env.row
  | parts ->
    fun env ->
      let out = Array.make width Value.Null in
      fill env out 0 parts;
      out

(* Phases run as a tree walk would: every FROM item first, then WHERE over
   all rows, then projection (or grouping, HAVING and projection group by
   group), then DISTINCT. *)
and compile_select ctx scope (sel : Ast.select) : cselect =
  let sources = List.map (compile_table_ref ctx scope) sel.Ast.from in
  let src_cols = Array.concat (List.map (fun s -> s.scols) sources) in
  let row_scope = Level (src_cols, scope) in
  let where = Option.map (compile_cond ctx row_scope ~agg:None) sel.Ast.where in
  let aggregated =
    sel.Ast.group_by <> []
    || List.exists
         (function
           | Ast.Expr_item (e, _) -> expr_has_aggregate e
           | Ast.Star | Ast.Qualified_star _ -> false)
         sel.Ast.projection
    || Option.fold ~none:false ~some:cond_has_aggregate sel.Ast.having
  in
  let columns = projection_columns sel src_cols in
  let agg = if aggregated then Some row_scope else None in
  let project = compile_projection ctx row_scope ~agg src_cols sel in
  (* FROM: every item in order, then their cross product. *)
  let from : env -> rowset =
    match sources with
    | [ s ] -> s.open_
    | sources ->
      fun env ->
        let opened = List.map (fun s -> s.open_ env) sources in
        let cross acc rows =
          List.concat_map
            (fun a ->
              let out = ref [] in
              iter_rowset (fun b -> out := Array.append a b :: !out) rows;
              List.rev !out)
            acc
        in
        (* No FROM clause: one empty row. *)
        Listed (List.fold_left cross [ [||] ] opened)
  in
  let filter : env -> env list =
    match where with
    | None ->
      fun outer ->
        let kept = ref [] in
        iter_rowset (fun r -> kept := row_env r outer :: !kept) (from outer);
        List.rev !kept
    | Some c ->
      fun outer ->
        let kept = ref [] in
        iter_rowset
          (fun r ->
            let env = row_env r outer in
            if tv_is_true (c env) then kept := env :: !kept)
          (from outer);
        List.rev !kept
  in
  let produce_rows : env -> env list -> (Value.t array * env) list =
    if not aggregated then fun _ envs -> List.map (fun env -> (project env, env)) envs
    else begin
      (* Grouping: only plain expression grouping is executable; ROLLUP /
         CUBE / GROUPING SETS parse and lower but are not evaluated. *)
      let keys : (_, string) result =
        if
          List.for_all
            (function Ast.Group_expr _ -> true | _ -> false)
            sel.Ast.group_by
        then
          Ok
            (Array.of_list
               (List.map
                  (function
                    | Ast.Group_expr e -> compile_expr ctx row_scope ~agg:None e
                    | _ -> assert false)
                  sel.Ast.group_by))
        else Error "ROLLUP/CUBE/GROUPING SETS are not supported by the engine"
      in
      let having = Option.map (compile_cond ctx row_scope ~agg) sel.Ast.having in
      let nsrc = Array.length src_cols in
      let emit outer members acc =
        let row = match members with e :: _ -> e.row | [] -> Array.make nsrc Value.Null in
        let genv = { row; group = members; up = outer } in
        let keep = match having with None -> true | Some c -> tv_is_true (c genv) in
        if keep then (project genv, genv) :: acc else acc
      in
      fun outer envs ->
        match keys with
        | Error msg -> raise (Error msg)
        | Ok [||] -> List.rev (emit outer envs [])
        | Ok keys ->
          List.rev
            (List.fold_left
               (fun acc (_, members) -> emit outer (List.rev !members) acc)
               [] (group_by keys envs))
    end
  in
  let produce outer =
    let envs = filter outer in
    (match columns with Error msg -> raise (Error msg) | Ok _ -> ());
    let produced = produce_rows outer envs in
    match sel.Ast.select_quantifier with
    | Some Ast.Distinct ->
      (* Deduplicate on the row values, keeping the first context. *)
      let seen = row_set () in
      List.filter (fun (row, _) -> set_add seen row) produced
    | Some Ast.All | None -> produced
  in
  {
    sel_cols = (match columns with Ok c -> c | Error _ -> []);
    src_cols;
    aggregated;
    produce;
  }

(* Groups in first-seen order; a row joins the first group whose key
   equals its own under [Value.equal]. *)
and group_by keys envs =
  let groups = ref [] in
  let index = Int_table.create 8 in
  List.iter
    (fun env ->
      let key = Array.map (fun k -> k env) keys in
      let h = hash_row key in
      let bucket = try Int_table.find index h with Not_found -> [] in
      (* The bucket is newest first: the last equal group is the oldest. *)
      let found =
        List.fold_left
          (fun found (k, members) -> if rows_equal k key then Some members else found)
          None bucket
      in
      match found with
      | Some members -> members := env :: !members
      | None ->
        let group = (key, ref [ env ]) in
        Int_table.replace index h (group :: bucket);
        groups := group :: !groups)
    envs;
  List.rev !groups

(* --- Query bodies, ordering, fetch ------------------------------------------------------------ *)

and compile_body ctx scope (body : Ast.query_body) : cquery =
  match body with
  | Ast.Select sel ->
    let s = compile_select ctx scope sel in
    { cols = s.sel_cols; run = (fun env -> List.map fst (s.produce env)) }
  | Ast.Paren_query q -> compile_query ctx scope q
  | Ast.Values rows ->
    let rows = List.map (List.map (compile_expr ctx scope ~agg:None)) rows in
    let width = match rows with [] -> 0 | r :: _ -> List.length r in
    {
      cols = List.init width (fun i -> Printf.sprintf "column%d" (i + 1));
      run =
        (fun env ->
          let evaluated =
            List.map (fun row -> Array.of_list (List.map (fun c -> c env) row)) rows
          in
          if List.exists (fun r -> Array.length r <> width) evaluated then
            err "VALUES rows differ in width";
          evaluated);
    }
  | Ast.Set_operation { op; quantifier; corresponding; lhs; rhs } ->
    let l = compile_body ctx scope lhs in
    let r = compile_body ctx scope rhs in
    (* CORRESPONDING: operate on the columns common to both operands (by
       name, in left-operand order). *)
    let shape : (_, string) result =
      if not corresponding then
        if List.length l.cols <> List.length r.cols then Error "set operation arity mismatch"
        else Ok (l.cols, None)
      else
        let common = List.filter (fun c -> List.mem c r.cols) l.cols in
        if common = [] then Error "CORRESPONDING: no common columns"
        else
          let indices cols =
            Array.of_list
              (List.map
                 (fun c ->
                   let rec find i = function
                     | [] -> assert false
                     | x :: rest -> if String.equal x c then i else find (i + 1) rest
                   in
                   find 0 cols)
                 common)
          in
          Ok (common, Some (indices l.cols, indices r.cols))
    in
    let distinct = quantifier <> Some Ast.All in
    {
      cols = (match shape with Ok (cols, _) -> cols | Error _ -> []);
      run =
        (fun env ->
          let lrows = l.run env in
          let rrows = r.run env in
          match shape with
          | Error msg -> raise (Error msg)
          | Ok (_, projection) ->
            let lrows, rrows =
              match projection with
              | None -> (lrows, rrows)
              | Some (li, ri) ->
                let pick idx row = Array.map (fun i -> row.(i)) idx in
                (List.map (pick li) lrows, List.map (pick ri) rrows)
            in
            let rows =
              match op with
              | Ast.Union -> lrows @ rrows
              | Ast.Intersect | Ast.Except ->
                let right = row_set () in
                List.iter (fun row -> ignore (set_add right row)) rrows;
                let want = op = Ast.Intersect in
                List.filter (fun row -> set_mem right row = want) lrows
            in
            if distinct then dedupe_rows rows else rows);
    }

(* WITH results are computed before the body, in order; later ones see
   earlier ones, and the first of two equal names wins. Their queries see
   no enclosing row. A recursive one starts empty and re-runs to a
   fixpoint, at most 256 rounds. *)
and compile_with ctx (wc : Ast.with_clause) : cte_binding list * (unit -> unit) =
  let cte_query_ctx earlier = { ctx with ctes = List.rev_append earlier ctx.ctes } in
  let bindings, steps =
    List.fold_left
      (fun (earlier, steps) (cte : Ast.cte) ->
        let name = cte.Ast.cte_name and declared = cte.Ast.cte_columns in
        let columns_of (cq : cquery) : (_, string) result =
          match declared with
          | [] -> Ok cq.cols
          | cols ->
            if List.length cols <> List.length cq.cols then
              Error (Printf.sprintf "WITH %s: column list arity mismatch" name)
            else Ok cols
        in
        let static_cols cq = match columns_of cq with Ok c -> c | Error _ -> declared in
        if not wc.Ast.recursive then begin
          let cq = compile_query (cte_query_ctx earlier) Top cte.Ast.cte_query in
          let binding = { cte_name = name; cte_cols = static_cols cq; cte_rows = [] } in
          let step () =
            let rows = cq.run top in
            (match columns_of cq with Error msg -> raise (Error msg) | Ok _ -> ());
            binding.cte_rows <- rows
          in
          (binding :: earlier, step :: steps)
        end
        else begin
          (* Each round sees the columns the previous round produced; they
             settle after a round or two, so the rounds are compiled up to
             that point and the last is reused. *)
          let rec rounds cols acc n =
            let binding = { cte_name = name; cte_cols = cols; cte_rows = [] } in
            let ctx' = { ctx with ctes = List.rev_append earlier (binding :: ctx.ctes) } in
            let cq = compile_query ctx' Top cte.Ast.cte_query in
            let next = static_cols cq in
            let acc = (binding, cq) :: acc in
            if next = cols || n >= 8 then (Array.of_list (List.rev acc), next)
            else rounds next acc (n + 1)
          in
          let compiled, final_cols = rounds declared [] 1 in
          let binding = { cte_name = name; cte_cols = final_cols; cte_rows = [] } in
          let step () =
            let current = ref [] and continue = ref true and round = ref 0 in
            while !continue do
              incr round;
              if !round > 256 then err "WITH RECURSIVE %s does not converge" name;
              let b, cq = compiled.(min (!round - 1) (Array.length compiled - 1)) in
              b.cte_rows <- !current;
              let rows = cq.run top in
              (match columns_of cq with Error msg -> raise (Error msg) | Ok _ -> ());
              let merged = dedupe_rows (!current @ rows) in
              if List.length merged = List.length !current then continue := false
              else current := merged
            done;
            binding.cte_rows <- !current
          in
          (binding :: earlier, step :: steps)
        end)
      ([], []) wc.Ast.ctes
  in
  let steps = List.rev steps in
  (List.rev bindings, fun () -> List.iter (fun step -> step ()) steps)

and compile_query ctx scope (q : Ast.query) : cquery =
  match q.Ast.with_ with
  | None -> compile_ordered ctx scope q
  | Some wc ->
    let bindings, materialize = compile_with ctx wc in
    let body = compile_ordered { ctx with ctes = bindings @ ctx.ctes } scope q in
    {
      cols = body.cols;
      run =
        (fun env ->
          materialize ();
          body.run env);
    }

(* ORDER BY sees the result columns first, then (for a SELECT) the source
   row it was produced from and, for grouped rows, the group. *)
and compile_ordered ctx scope (q : Ast.query) : cquery =
  let sorted (keyed : (Value.t list * Value.t array) list) =
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
            | _, Value.Null -> (match s.Ast.nulls_last with Some false -> 1 | _ -> -1)
            | _, _ ->
              let c = Value.compare_total a b in
              if s.Ast.descending then -c else c
          in
          if base <> 0 then base else go specs' ka' kb'
        | _, _, _ -> 0
      in
      go q.Ast.order_by ka kb
    in
    List.map snd (List.stable_sort compare_keys keyed)
  in
  let result_cols cols = qualified None cols in
  let body =
    match q.Ast.body, q.Ast.order_by with
    | _, [] -> compile_body ctx scope q.Ast.body
    | Ast.Select sel, specs ->
      let s = compile_select ctx scope sel in
      let source_scope = Level (s.src_cols, scope) in
      let agg = if s.aggregated then Some source_scope else None in
      let keys =
        List.map
          (fun spec ->
            compile_expr ctx (Level (result_cols s.sel_cols, source_scope)) ~agg
              spec.Ast.sort_expr)
          specs
      in
      {
        cols = s.sel_cols;
        run =
          (fun env ->
            sorted
              (List.map
                 (fun (row, source) ->
                   let kenv = { row; group = source.group; up = source } in
                   (List.map (fun k -> k kenv) keys, row))
                 (s.produce env)));
      }
    | body, specs ->
      let b = compile_body ctx scope body in
      let keys =
        List.map
          (fun spec ->
            compile_expr ctx (Level (result_cols b.cols, scope)) ~agg:None spec.Ast.sort_expr)
          specs
      in
      {
        cols = b.cols;
        run =
          (fun env ->
            sorted
              (List.map
                 (fun row ->
                   let kenv = row_env row env in
                   (List.map (fun k -> k kenv) keys, row))
                 (b.run env)));
      }
  in
  match q.Ast.fetch with
  | None -> body
  | Some (Ast.Fetch_first n) | Some (Ast.Limit n) ->
    { body with run = (fun env -> List.filteri (fun i _ -> i < n) (body.run env)) }

(* --- DML / DDL ------------------------------------------------------------------------------ *)

let find_base_table catalog (name : Ast.object_name) =
  match Catalog.find catalog name.Ast.name with
  | Some (Catalog.Base_table t) -> t
  | Some (Catalog.View _) -> err "%s is a view, not a base table" name.Ast.name
  | None -> err "unknown table %s" name.Ast.name

(* The scope of a table's own rows, as constraints and UPDATE/DELETE see
   them: qualified by the table's name. *)
let table_scope (schema : Schema.t) =
  Level (qualified (Some schema.Schema.name) (Schema.column_names schema), Top)

let compile_default ctx (c : Schema.column) : unit -> Value.t =
  match c.Schema.default with
  | Some e ->
    let ce = compile_expr ctx Top ~agg:None e in
    fun () -> Value.coerce c.Schema.col_type (ce top)
  | None -> fun () -> Value.Null

let compile_constraints ctx (table : Table.t) : Value.t array -> unit =
  let catalog = ctx.catalog in
  let schema = table.Table.schema in
  let checks = List.map (compile_cond ctx (table_scope schema) ~agg:None) schema.Schema.checks in
  fun row ->
    List.iteri
      (fun i (c : Schema.column) ->
        if c.Schema.not_null && Value.is_null row.(i) then
          err "column %s may not be null" c.Schema.col_name)
      schema.Schema.columns;
    let env = row_env row top in
    List.iter
      (fun check ->
        match check env with
        | F -> err "CHECK constraint violated on %s" schema.Schema.name
        | T | U -> ())
      checks;
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
              err "duplicate key for unique constraint on %s" (String.concat ", " set))
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
      if not (List.exists Value.is_null values) then begin
        let found = ref false in
        Vec.iter
          (fun trow ->
            if List.for_all2 (fun v ti -> Value.equal v trow.(ti)) values target_indices
            then found := true)
          target.Table.rows;
        if not !found then
          err "foreign key violation: no matching row in %s" spec.Ast.ref_table.Ast.name
      end
    in
    List.iter
      (fun (c : Schema.column) ->
        match c.Schema.references with
        | Some spec -> check_reference [ c.Schema.col_name ] spec
        | None -> ())
      schema.Schema.columns;
    List.iter (fun (cols, spec) -> check_reference cols spec) schema.Schema.foreign_keys

(* SET clauses, applied in order to a fresh copy of the row; an unknown
   target column raises when its clause is reached. *)
let compile_assignments ctx scope schema (sets : Ast.set_clause list) :
    env -> Value.t array -> unit =
  let steps =
    List.map
      (fun (sc : Ast.set_clause) ->
        match Schema.column_index schema sc.Ast.target with
        | None -> fun _ _ -> err "unknown column %s" sc.Ast.target
        | Some i ->
          let column = List.nth schema.Schema.columns i in
          let value =
            match sc.Ast.value with
            | None ->
              let default = compile_default ctx column in
              fun _ -> default ()
            | Some e ->
              let ce = compile_expr ctx scope ~agg:None e in
              fun env -> Value.coerce column.Schema.col_type (ce env)
          in
          fun env fresh -> fresh.(i) <- value env)
      sets
  in
  fun env fresh -> List.iter (fun step -> step env fresh) steps

let insert ctx (ins : Ast.insert) =
  let table = find_base_table ctx.catalog ins.Ast.table in
  let schema = table.Table.schema in
  let target_columns =
    match ins.Ast.columns with [] -> Schema.column_names schema | cols -> cols
  in
  let defaults = List.map (compile_default ctx) schema.Schema.columns in
  let default_row () = Array.of_list (List.map (fun d -> d ()) defaults) in
  let build_row values =
    if List.length values <> List.length target_columns then err "INSERT arity mismatch";
    let row = default_row () in
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
  let source : unit -> Value.t array list =
    match ins.Ast.source with
    | Ast.Insert_defaults -> fun () -> [ default_row () ]
    | Ast.Insert_values rows ->
      let rows = List.map (List.map (compile_expr ctx Top ~agg:None)) rows in
      fun () ->
        List.map build_row (List.map (List.map (fun c -> c top)) rows)
    | Ast.Insert_query q ->
      let cq = compile_query ctx Top q in
      fun () -> List.map (fun row -> build_row (Array.to_list row)) (cq.run top)
  in
  let check = compile_constraints ctx table in
  let built = source () in
  List.iter
    (fun row ->
      check row;
      Table.insert table row)
    built;
  List.length built

let update ctx (u : Ast.update) =
  let table = find_base_table ctx.catalog u.Ast.table in
  let schema = table.Table.schema in
  let scope = table_scope schema in
  let where = Option.map (compile_cond ctx scope ~agg:None) u.Ast.update_where in
  let assign = compile_assignments ctx scope schema u.Ast.assignments in
  let checks = List.map (compile_cond ctx scope ~agg:None) schema.Schema.checks in
  let count = ref 0 in
  Vec.map_in_place
    (fun row ->
      let env = row_env row top in
      let affected = match where with None -> true | Some c -> tv_is_true (c env) in
      if not affected then row
      else begin
        incr count;
        let fresh = Array.copy row in
        assign env fresh;
        (* NOT NULL and CHECK revalidation (uniqueness is not re-checked on
           update: good enough for the reproduction's workloads). *)
        List.iteri
          (fun i (c : Schema.column) ->
            if c.Schema.not_null && Value.is_null fresh.(i) then
              err "column %s may not be null" c.Schema.col_name)
          schema.Schema.columns;
        let env' = row_env fresh top in
        List.iter
          (fun check ->
            match check env' with
            | F -> err "CHECK constraint violated on %s" schema.Schema.name
            | T | U -> ())
          checks;
        fresh
      end)
    table.Table.rows;
  !count

let delete ctx (d : Ast.delete) =
  let table = find_base_table ctx.catalog d.Ast.table in
  let schema = table.Table.schema in
  match d.Ast.delete_where with
  | None -> Vec.filter_in_place (fun _ -> false) table.Table.rows
  | Some c ->
    let c = compile_cond ctx (table_scope schema) ~agg:None c in
    Vec.filter_in_place (fun row -> not (tv_is_true (c (row_env row top)))) table.Table.rows

let merge ctx (m : Ast.merge) =
  let target = find_base_table ctx.catalog m.Ast.target in
  let schema = target.Table.schema in
  let target_qualifier = Option.value ~default:m.Ast.target.Ast.name m.Ast.target_alias in
  let target_cols = qualified (Some target_qualifier) (Schema.column_names schema) in
  let source = compile_table_ref ctx Top m.Ast.source in
  let source_scope = Level (source.scols, Top) in
  let pair_scope = Level (Array.append target_cols source.scols, Top) in
  let on = compile_cond ctx pair_scope ~agg:None m.Ast.on in
  let matched_update =
    match
      List.find_opt (function Ast.When_matched_update _ -> true | _ -> false) m.Ast.actions
    with
    | Some (Ast.When_matched_update sets) ->
      Some (compile_assignments ctx pair_scope schema sets)
    | _ -> None
  in
  let not_matched_insert =
    match
      List.find_opt
        (function Ast.When_not_matched_insert _ -> true | _ -> false)
        m.Ast.actions
    with
    | Some (Ast.When_not_matched_insert (cols, values)) ->
      let columns = match cols with [] -> Schema.column_names schema | cs -> cs in
      Some (columns, List.map (compile_expr ctx source_scope ~agg:None) values)
    | _ -> None
  in
  let defaults = List.map (compile_default ctx) schema.Schema.columns in
  let check = compile_constraints ctx target in
  let source_rows =
    let acc = ref [] in
    iter_rowset (fun r -> acc := r :: !acc) (source.open_ top);
    List.rev !acc
  in
  let affected = ref 0 in
  List.iter
    (fun source_row ->
      let source_env = row_env source_row top in
      (* Find matching target rows under the ON condition. *)
      let matched = ref false in
      Vec.map_in_place
        (fun trow ->
          let env = row_env (Array.append trow source_row) top in
          if tv_is_true (on env) then begin
            matched := true;
            match matched_update with
            | Some assign ->
              incr affected;
              let fresh = Array.copy trow in
              assign env fresh;
              fresh
            | None -> trow
          end
          else trow)
        target.Table.rows;
      if not !matched then
        match not_matched_insert with
        | Some (columns, values) ->
          if List.length columns <> List.length values then
            err "MERGE INSERT arity mismatch";
          incr affected;
          let row = Array.of_list (List.map (fun d -> d ()) defaults) in
          List.iter2
            (fun col c ->
              match Schema.column_index schema col with
              | None -> err "unknown column %s" col
              | Some i ->
                let column = List.nth schema.Schema.columns i in
                row.(i) <- Value.coerce column.Schema.col_type (c source_env))
            columns values;
          check row;
          Table.insert target row
        | None -> ())
    source_rows;
  !affected

(* --- EXPLAIN ------------------------------------------------------------------------ *)

(* A one-column textual description of the evaluation strategy: the
   statement is compiled (compiling runs nothing) and each join reports
   the strategy the compiled executor picked for it. *)
let explain catalog (q : Ast.query) : result_set =
  let ctx = new_ctx catalog in
  ignore (compile_query ctx Top q);
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
    | Ast.Joined { lhs; kind; rhs; condition } as tr ->
      emit depth "%s %s join%s:"
        (Option.value ~default:"nested-loop" (List.assq_opt tr !(ctx.joins)))
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

let result_set (cq : cquery) =
  { columns = cq.cols; rows = List.map Array.to_list (cq.run top) }

let run_query catalog q = result_set (compile_query (new_ctx catalog) Top q)

let run_statement catalog (stmt : Ast.statement) : outcome =
  match stmt with
  | Ast.Query_stmt q -> Rows (run_query catalog q)
  | Ast.Insert_stmt i -> Affected (insert (new_ctx ~writes:i.Ast.table.Ast.name catalog) i)
  | Ast.Update_stmt u -> Affected (update (new_ctx ~writes:u.Ast.table.Ast.name catalog) u)
  | Ast.Delete_stmt d -> Affected (delete (new_ctx ~writes:d.Ast.table.Ast.name catalog) d)
  | Ast.Merge_stmt m -> Affected (merge (new_ctx ~writes:m.Ast.target.Ast.name catalog) m)
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
        let fill = compile_default (new_ctx catalog) column () in
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

let pp_result_set ppf rs =
  Fmt.pf ppf "%s@." (String.concat " | " rs.columns);
  List.iter
    (fun row ->
      Fmt.pf ppf "%s@." (String.concat " | " (List.map Value.to_string row)))
    rs.rows

(* Tests for CST -> AST lowering, via the full dialect parser. *)

open Sql_ast

let full =
  lazy
    (match Core.generate_dialect Dialects.Dialect.full with
     | Ok g -> g
     | Error e -> Alcotest.failf "generate full: %a" Core.pp_error e)

let stmt sql =
  match Core.parse_statement (Lazy.force full) sql with
  | Ok s -> s
  | Error e -> Alcotest.failf "parse %S: %a" sql Core.pp_error e

let expr_of sql =
  match stmt sql with
  | Ast.Query_stmt { body = Ast.Select { projection = [ Ast.Expr_item (e, _) ]; _ }; _ } ->
    e
  | _ -> Alcotest.failf "%S is not a single-item select" sql

let where_of sql =
  match stmt sql with
  | Ast.Query_stmt { body = Ast.Select { where = Some c; _ }; _ } -> c
  | _ -> Alcotest.failf "%S has no where" sql

let check_expr name expected sql =
  Alcotest.(check bool) name true (Ast.equal_expr expected (expr_of ("SELECT " ^ sql ^ " FROM t")))

let check_cond name expected sql =
  Alcotest.(check bool) name true (expected = where_of ("SELECT a FROM t WHERE " ^ sql))

let col n = Ast.Column (None, n)

let test_literals () =
  check_expr "integer" (Ast.Lit (Ast.L_integer 42)) "42";
  check_expr "decimal" (Ast.Lit (Ast.L_decimal 3.25)) "3.25";
  check_expr "string" (Ast.Lit (Ast.L_string "it's")) "'it''s'";
  check_expr "true" (Ast.Lit (Ast.L_bool true)) "TRUE";
  check_expr "null" (Ast.Lit Ast.L_null) "NULL";
  check_expr "date" (Ast.Lit (Ast.L_date "2008-03-29")) "DATE '2008-03-29'"

let test_columns () =
  check_expr "bare column" (col "a") "a";
  check_expr "qualified column" (Ast.Column (Some "t", "a")) "t.a"

let test_arithmetic_left_assoc_and_precedence () =
  check_expr "left assoc"
    (Ast.Binop (Ast.Sub, Ast.Binop (Ast.Sub, col "a", col "b"), col "c"))
    "a - b - c";
  check_expr "precedence"
    (Ast.Binop (Ast.Add, col "a", Ast.Binop (Ast.Mul, col "b", col "c")))
    "a + b * c";
  check_expr "parens override"
    (Ast.Binop (Ast.Mul, Ast.Binop (Ast.Add, col "a", col "b"), col "c"))
    "(a + b) * c";
  check_expr "unary minus" (Ast.Unary (Ast.S_minus, col "a")) "- a";
  check_expr "concat" (Ast.Binop (Ast.Concat, col "a", col "b")) "a || b"

let test_functions () =
  check_expr "upper" (Ast.Call ("UPPER", [ col "a" ])) "UPPER(a)";
  check_expr "coalesce"
    (Ast.Call ("COALESCE", [ col "a"; col "b"; Ast.Lit (Ast.L_integer 0) ]))
    "COALESCE(a, b, 0)";
  check_expr "substring"
    (Ast.Substring
       { arg = col "a"; from_ = Ast.Lit (Ast.L_integer 1); for_ = Some (Ast.Lit (Ast.L_integer 3)) })
    "SUBSTRING(a FROM 1 FOR 3)";
  check_expr "position"
    (Ast.Position { needle = Ast.Lit (Ast.L_string "x"); haystack = col "a" })
    "POSITION('x' IN a)";
  check_expr "trim both"
    (Ast.Trim { side = Some Ast.Trim_both; removed = Some (Ast.Lit (Ast.L_string "x")); arg = col "a" })
    "TRIM(BOTH 'x' FROM a)";
  check_expr "extract" (Ast.Extract { field = "YEAR"; arg = col "d" }) "EXTRACT(YEAR FROM d)";
  check_expr "cast" (Ast.Cast (col "a", Ast.T_integer)) "CAST(a AS INTEGER)";
  check_expr "niladic" (Ast.Call ("CURRENT_DATE", [])) "CURRENT_DATE";
  check_expr "user function" (Ast.Call ("myfun", [ col "a"; col "b" ])) "myfun(a, b)"

let test_aggregates () =
  check_expr "count star"
    (Ast.Aggregate { func = Ast.F_count; agg_quantifier = None; arg = Ast.A_star })
    "COUNT(*)";
  check_expr "count distinct"
    (Ast.Aggregate
       { func = Ast.F_count; agg_quantifier = Some Ast.Distinct; arg = Ast.A_expr (col "a") })
    "COUNT(DISTINCT a)";
  check_expr "sum"
    (Ast.Aggregate { func = Ast.F_sum; agg_quantifier = None; arg = Ast.A_expr (col "x") })
    "SUM(x)"

let test_case_expressions () =
  check_expr "searched case"
    (Ast.Case_searched
       {
         branches = [ (Ast.Comparison (Ast.Eq, col "a", Ast.Lit (Ast.L_integer 1)),
                       Ast.Lit (Ast.L_string "one")) ];
         else_ = Some (Ast.Lit (Ast.L_string "other"));
       })
    "CASE WHEN a = 1 THEN 'one' ELSE 'other' END";
  check_expr "simple case"
    (Ast.Case_simple
       {
         operand = col "a";
         branches = [ (Ast.Lit (Ast.L_integer 1), Ast.Lit (Ast.L_string "one")) ];
         else_ = None;
       })
    "CASE a WHEN 1 THEN 'one' END";
  check_expr "nullif" (Ast.Call ("NULLIF", [ col "a"; col "b" ])) "NULLIF(a, b)"

let test_conditions () =
  check_cond "comparison" (Ast.Comparison (Ast.Le, col "a", col "b")) "a <= b";
  check_cond "and-or precedence"
    (Ast.Or
       ( Ast.And (Ast.Comparison (Ast.Eq, col "a", col "b"), Ast.Comparison (Ast.Eq, col "c", col "d")),
         Ast.Comparison (Ast.Eq, col "e", col "f") ))
    "a = b AND c = d OR e = f";
  check_cond "not" (Ast.Not (Ast.Is_null { negated = false; arg = col "a" })) "NOT a IS NULL";
  check_cond "negated null" (Ast.Is_null { negated = true; arg = col "a" }) "a IS NOT NULL";
  check_cond "between"
    (Ast.Between
       { negated = false; symmetric = false; arg = col "a";
         low = Ast.Lit (Ast.L_integer 1); high = Ast.Lit (Ast.L_integer 5) })
    "a BETWEEN 1 AND 5";
  check_cond "between symmetric"
    (Ast.Between
       { negated = true; symmetric = true; arg = col "a";
         low = Ast.Lit (Ast.L_integer 5); high = Ast.Lit (Ast.L_integer 1) })
    "a NOT BETWEEN SYMMETRIC 5 AND 1";
  check_cond "not in list"
    (Ast.In_list { negated = true; arg = col "a"; values = [ Ast.Lit (Ast.L_integer 1); Ast.Lit (Ast.L_integer 2) ] })
    "a NOT IN (1, 2)";
  check_cond "like escape"
    (Ast.Like
       { negated = false; arg = col "a"; pattern = Ast.Lit (Ast.L_string "x%");
         escape = Some (Ast.Lit (Ast.L_string "!")) })
    "a LIKE 'x%' ESCAPE '!'";
  check_cond "is distinct from"
    (Ast.Is_distinct_from { negated = false; lhs = col "a"; rhs = col "b" })
    "a IS DISTINCT FROM b";
  check_cond "is truth"
    (Ast.Is_truth
       { negated = true; arg = Ast.Comparison (Ast.Eq, col "a", col "b"); truth = Ast.Unknown })
    "(a = b) IS NOT UNKNOWN";
  check_cond "boolean column" (Ast.Bool_expr (col "active")) "active"

let test_subquery_conditions () =
  (match where_of "SELECT a FROM t WHERE EXISTS (SELECT b FROM u)" with
   | Ast.Exists _ -> ()
   | _ -> Alcotest.fail "exists expected");
  (match where_of "SELECT a FROM t WHERE a IN (SELECT b FROM u)" with
   | Ast.In_subquery { negated = false; _ } -> ()
   | _ -> Alcotest.fail "in-subquery expected");
  match where_of "SELECT a FROM t WHERE a > ALL (SELECT b FROM u)" with
  | Ast.Quantified_comparison { op = Ast.Gt; quantifier = Ast.Q_all; _ } -> ()
  | _ -> Alcotest.fail "quantified comparison expected"

let test_select_structure () =
  match stmt "SELECT DISTINCT a AS x, t.* FROM t" with
  | Ast.Query_stmt { body = Ast.Select s; _ } ->
    Alcotest.(check bool) "distinct" true (s.select_quantifier = Some Ast.Distinct);
    (match s.projection with
     | [ Ast.Expr_item (_, Some "x"); Ast.Qualified_star "t" ] -> ()
     | _ -> Alcotest.fail "projection shape")
  | _ -> Alcotest.fail "select expected"

let test_from_and_joins () =
  match stmt "SELECT a FROM t AS t1, u LEFT OUTER JOIN v USING (k)" with
  | Ast.Query_stmt { body = Ast.Select { from = [ first; second ]; _ }; _ } ->
    (match first with
     | Ast.Table ({ name = "t"; _ }, Some { alias = "t1"; _ }) -> ()
     | _ -> Alcotest.fail "aliased table expected");
    (match second with
     | Ast.Joined { kind = Ast.Left_outer; condition = Some (Ast.Using [ "k" ]); _ } -> ()
     | _ -> Alcotest.fail "left join expected")
  | _ -> Alcotest.fail "two from items expected"

let test_derived_table () =
  match stmt "SELECT a FROM (SELECT b AS a FROM u) AS d (a)" with
  | Ast.Query_stmt { body = Ast.Select { from = [ Ast.Derived_table (_, corr) ]; _ }; _ } ->
    Alcotest.(check string) "alias" "d" corr.alias;
    Alcotest.(check (list string)) "column list" [ "a" ] corr.columns
  | _ -> Alcotest.fail "derived table expected"

let test_group_order_fetch () =
  match stmt "SELECT a FROM t GROUP BY a, ROLLUP (b, c) HAVING COUNT(*) > 1 ORDER BY a DESC NULLS LAST FETCH FIRST 3 ROWS ONLY" with
  | Ast.Query_stmt q ->
    (match q.body with
     | Ast.Select s ->
       (match s.group_by with
        | [ Ast.Group_expr _; Ast.Rollup [ _; _ ] ] -> ()
        | _ -> Alcotest.fail "group by shape");
       Alcotest.(check bool) "having present" true (s.having <> None)
     | _ -> Alcotest.fail "select expected");
    (match q.order_by with
     | [ { descending = true; nulls_last = Some true; _ } ] -> ()
     | _ -> Alcotest.fail "order spec");
    Alcotest.(check bool) "fetch" true (q.fetch = Some (Ast.Fetch_first 3))
  | _ -> Alcotest.fail "query expected"

let test_set_operations_left_assoc () =
  match stmt "SELECT a FROM t UNION ALL SELECT b FROM u EXCEPT SELECT c FROM v" with
  | Ast.Query_stmt
      { body = Ast.Set_operation { op = Ast.Except; lhs = Ast.Set_operation { op = Ast.Union; quantifier = Some Ast.All; _ }; _ }; _ } ->
    ()
  | _ -> Alcotest.fail "left-associative set ops expected"

let test_epoch () =
  match stmt "SELECT a FROM sensors EPOCH DURATION 1024 SAMPLE PERIOD 10" with
  | Ast.Query_stmt { epoch = Some { duration = Some 1024; sample_period = Some 10 }; _ } -> ()
  | _ -> Alcotest.fail "epoch clause expected"

let test_insert () =
  match stmt "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')" with
  | Ast.Insert_stmt { table = { name = "t"; _ }; columns = [ "a"; "b" ];
                      source = Ast.Insert_values [ [ _; _ ]; [ _; _ ] ] } -> ()
  | _ -> Alcotest.fail "insert shape"

let test_insert_query_and_defaults () =
  (match stmt "INSERT INTO t SELECT a FROM u" with
   | Ast.Insert_stmt { source = Ast.Insert_query _; _ } -> ()
   | _ -> Alcotest.fail "insert from query");
  match stmt "INSERT INTO t DEFAULT VALUES" with
  | Ast.Insert_stmt { source = Ast.Insert_defaults; _ } -> ()
  | _ -> Alcotest.fail "default values"

let test_update_delete () =
  (match stmt "UPDATE t SET a = 1, b = DEFAULT WHERE a < 5" with
   | Ast.Update_stmt { assignments = [ { target = "a"; value = Some _ }; { target = "b"; value = None } ];
                       update_where = Some _; _ } -> ()
   | _ -> Alcotest.fail "update shape");
  match stmt "DELETE FROM t" with
  | Ast.Delete_stmt { delete_where = None; _ } -> ()
  | _ -> Alcotest.fail "delete shape"

let test_create_table () =
  match stmt "CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR(20) DEFAULT 'x' NOT NULL, CONSTRAINT fk FOREIGN KEY (id) REFERENCES u (uid) ON DELETE CASCADE ON UPDATE SET NULL, CHECK (id > 0))" with
  | Ast.Create_table_stmt ct ->
    (match ct.elements with
     | [ Ast.Column_element id_col; Ast.Column_element name_col;
         Ast.Constraint_element fk; Ast.Constraint_element check ] ->
       Alcotest.(check bool) "pk" true (List.mem Ast.C_primary_key id_col.constraints);
       Alcotest.(check bool) "not null" true (List.mem Ast.C_not_null name_col.constraints);
       Alcotest.(check bool) "default" true (name_col.default <> None);
       (match fk.body with
        | Ast.T_foreign_key ([ "id" ], spec) ->
          Alcotest.(check bool) "on delete cascade" true (spec.on_delete = Some Ast.Ra_cascade);
          Alcotest.(check bool) "on update set null" true (spec.on_update = Some Ast.Ra_set_null)
        | _ -> Alcotest.fail "fk shape");
       Alcotest.(check (option string)) "constraint name" (Some "fk") fk.constraint_name;
       (match check.body with Ast.T_check _ -> () | _ -> Alcotest.fail "check shape")
     | _ -> Alcotest.fail "element shapes")
  | _ -> Alcotest.fail "create table expected"

let test_types () =
  let ty sql =
    match stmt (Printf.sprintf "CREATE TABLE t (c %s)" sql) with
    | Ast.Create_table_stmt { elements = [ Ast.Column_element c ]; _ } -> c.ty
    | _ -> Alcotest.fail "column expected"
  in
  Alcotest.(check bool) "int synonym" true (ty "INT" = Ast.T_integer);
  Alcotest.(check bool) "decimal p s" true (ty "DECIMAL(8, 2)" = Ast.T_decimal (Some (8, Some 2)));
  Alcotest.(check bool) "numeric synonym" true (ty "NUMERIC(5)" = Ast.T_decimal (Some (5, None)));
  Alcotest.(check bool) "char varying" true (ty "CHARACTER VARYING (9)" = Ast.T_varchar (Some 9));
  Alcotest.(check bool) "char" true (ty "CHAR(2)" = Ast.T_char (Some 2));
  Alcotest.(check bool) "double" true (ty "DOUBLE PRECISION" = Ast.T_double);
  Alcotest.(check bool) "timestamp" true (ty "TIMESTAMP" = Ast.T_timestamp)

let test_view_drop_alter () =
  (match stmt "CREATE VIEW v (a) AS SELECT x FROM t WITH CHECK OPTION" with
   | Ast.Create_view_stmt { view_columns = [ "a" ]; check_option = true; _ } -> ()
   | _ -> Alcotest.fail "view shape");
  (match stmt "DROP VIEW v RESTRICT" with
   | Ast.Drop_stmt { drop_kind = Ast.Drop_view; behavior = Some Ast.Restrict; _ } -> ()
   | _ -> Alcotest.fail "drop shape");
  match stmt "ALTER TABLE t ALTER COLUMN c SET DEFAULT 0" with
  | Ast.Alter_table_stmt { action = Ast.Set_column_default ("c", _); _ } -> ()
  | _ -> Alcotest.fail "alter shape"

let test_grant_revoke () =
  (match stmt "GRANT SELECT, UPDATE (a, b) ON TABLE t TO alice, PUBLIC WITH GRANT OPTION" with
   | Ast.Grant_stmt g ->
     Alcotest.(check bool) "privileges" true
       (g.privileges = [ Ast.P_select; Ast.P_update [ "a"; "b" ] ]);
     Alcotest.(check bool) "grantees" true (g.grantees = [ Ast.User "alice"; Ast.Public ]);
     Alcotest.(check bool) "wgo" true g.with_grant_option
   | _ -> Alcotest.fail "grant shape");
  match stmt "REVOKE ALL PRIVILEGES ON TABLE t FROM bob CASCADE" with
  | Ast.Revoke_stmt r ->
    Alcotest.(check bool) "all privileges" true (r.revoked = [ Ast.P_all ]);
    Alcotest.(check bool) "behavior" true (r.revoke_behavior = Some Ast.Cascade)
  | _ -> Alcotest.fail "revoke shape"

let test_transactions () =
  let t sql = match stmt sql with Ast.Transaction_stmt t -> t | _ -> Alcotest.fail sql in
  Alcotest.(check bool) "commit" true (t "COMMIT WORK" = Ast.Commit);
  Alcotest.(check bool) "rollback to" true
    (t "ROLLBACK TO SAVEPOINT sp" = Ast.Rollback (Some "sp"));
  Alcotest.(check bool) "savepoint" true (t "SAVEPOINT sp" = Ast.Savepoint "sp");
  Alcotest.(check bool) "release" true
    (t "RELEASE SAVEPOINT sp" = Ast.Release_savepoint "sp");
  Alcotest.(check bool) "start with isolation" true
    (t "START TRANSACTION ISOLATION LEVEL REPEATABLE READ"
     = Ast.Start_transaction (Some Ast.Repeatable_read));
  Alcotest.(check bool) "set transaction" true
    (t "SET TRANSACTION ISOLATION LEVEL READ COMMITTED"
     = Ast.Set_transaction Ast.Read_committed)

let test_merge () =
  match stmt "MERGE INTO t AS x USING u ON t.id = u.id WHEN MATCHED THEN UPDATE SET a = 1 WHEN NOT MATCHED THEN INSERT (id) VALUES (3)" with
  | Ast.Merge_stmt m ->
    Alcotest.(check (option string)) "alias" (Some "x") m.target_alias;
    (match m.actions with
     | [ Ast.When_matched_update _; Ast.When_not_matched_insert ([ "id" ], [ _ ]) ] -> ()
     | _ -> Alcotest.fail "merge actions")
  | _ -> Alcotest.fail "merge expected"

let test_schema_statements () =
  (match stmt "CREATE SCHEMA retail" with
   | Ast.Schema_stmt (Ast.Create_schema "retail") -> ()
   | _ -> Alcotest.fail "create schema");
  match stmt "DROP SCHEMA retail CASCADE" with
  | Ast.Schema_stmt (Ast.Drop_schema ("retail", Some Ast.Cascade)) -> ()
  | _ -> Alcotest.fail "drop schema"

let test_values_statement () =
  match stmt "VALUES (1, 'one'), (2, 'two')" with
  | Ast.Query_stmt { body = Ast.Values [ [ _; _ ]; [ _; _ ] ]; _ } -> ()
  | _ -> Alcotest.fail "values expected"

let test_window_function_lowering () =
  match expr_of "SELECT RANK() OVER (PARTITION BY a ORDER BY b) FROM t" with
  | Ast.Window_call { wfunc = "RANK"; partition_by = [ _ ]; win_order_by = [ _ ] } -> ()
  | _ -> Alcotest.fail "window call shape"

let test_parameters_lowering () =
  match stmt "SELECT a FROM t WHERE a = ? AND b = ?" with
  | Ast.Query_stmt
      { body =
          Ast.Select
            { where =
                Some
                  (Ast.And
                     ( Ast.Comparison (Ast.Eq, _, Ast.Parameter 1),
                       Ast.Comparison (Ast.Eq, _, Ast.Parameter 2) ));
              _ };
        _ } ->
    ()
  | _ -> Alcotest.fail "parameter ordinals in lexical order"

let test_with_clause_lowering () =
  match stmt "WITH RECURSIVE c (x) AS (SELECT a FROM t) SELECT x FROM c" with
  | Ast.Query_stmt
      { with_ = Some { recursive = true; ctes = [ { cte_name = "c"; cte_columns = [ "x" ]; _ } ] };
        _ } ->
    ()
  | _ -> Alcotest.fail "with clause shape"

let test_updatability_lowering () =
  (match stmt "SELECT a FROM t FOR UPDATE OF a, b" with
   | Ast.Query_stmt { updatability = Some (Ast.For_update [ "a"; "b" ]); _ } -> ()
   | _ -> Alcotest.fail "for update of");
  match stmt "SELECT a FROM t FOR READ ONLY" with
  | Ast.Query_stmt { updatability = Some Ast.For_read_only; _ } -> ()
  | _ -> Alcotest.fail "for read only"

let test_corresponding_lowering () =
  match stmt "SELECT a FROM t UNION ALL CORRESPONDING SELECT a FROM u" with
  | Ast.Query_stmt
      { body =
          Ast.Set_operation
            { op = Ast.Union; quantifier = Some Ast.All; corresponding = true; _ };
        _ } ->
    ()
  | _ -> Alcotest.fail "corresponding flag"

let test_sequence_lowering () =
  (match stmt "CREATE SEQUENCE ids START WITH 5 INCREMENT BY 2" with
   | Ast.Sequence_stmt
       (Ast.Create_sequence { seq_name = "ids"; seq_start = Some 5; seq_increment = Some 2 }) ->
     ()
   | _ -> Alcotest.fail "create sequence with both options");
  (match stmt "CREATE SEQUENCE ids INCREMENT BY 2" with
   | Ast.Sequence_stmt
       (Ast.Create_sequence { seq_start = None; seq_increment = Some 2; _ }) -> ()
   | _ -> Alcotest.fail "increment only");
  match expr_of "SELECT NEXT VALUE FOR ids FROM t" with
  | Ast.Next_value "ids" -> ()
  | _ -> Alcotest.fail "next value"

let test_explain_lowering () =
  match stmt "EXPLAIN SELECT a FROM t ORDER BY a ASC" with
  | Ast.Explain_stmt { order_by = [ _ ]; _ } -> ()
  | _ -> Alcotest.fail "explain wraps the full query statement"

(* The rows path ([Core.parse_statement], which lowers the parse's rows)
   against the [Cst.t] adapter ([Lower.statement] of [Core.parse_cst]):
   equal ASTs, or equal errors, on every dialect's accept corpus and on
   mutated and junk statements of the full dialect. *)
let same_lowering g sql =
  let rows = Core.parse_statement g sql in
  let adapter =
    match Core.parse_cst g sql with
    | Error e -> Error e
    | Ok cst -> Result.map_error (fun e -> Core.Lowering_error e) (Lower.statement cst)
  in
  match rows, adapter with
  | Ok a, Ok b -> Ast.equal_statement a b
  | Error a, Error b -> Fmt.str "%a" Core.pp_error a = Fmt.str "%a" Core.pp_error b
  | _ -> false

let test_rows_match_adapter () =
  List.iter
    (fun (d, corpus) ->
      let g =
        match Dialects.Dialect.find d with
        | Some dialect -> Result.get_ok (Core.generate_dialect dialect)
        | None -> Alcotest.failf "no dialect %s" d
      in
      List.iter
        (fun sql -> Alcotest.(check bool) (d ^ ": " ^ sql) true (same_lowering g sql))
        corpus)
    [
      ("minimal", Corpus.minimal_accept); ("scql", Corpus.scql_accept);
      ("tinysql", Corpus.tinysql_accept); ("embedded", Corpus.embedded_accept);
      ("analytics", Corpus.analytics_accept); ("full", Corpus.full_accept);
    ];
  let g = Lazy.force full in
  let rng = Random.State.make [| 34 |] in
  let corpus = Array.of_list Corpus.full_accept in
  let junk = [| "SELECT"; "FROM"; "("; ")"; ","; "'"; "*"; "a"; "1"; " "; "?";
                "."; "<"; "="; "WHERE"; "AND"; "x" |] in
  for _ = 1 to 500 do
    let sql = corpus.(Random.State.int rng (Array.length corpus)) in
    let mutated =
      if String.length sql < 4 then sql
      else
        let at = Random.State.int rng (String.length sql - 2) in
        String.sub sql 0 at ^ String.sub sql (at + 2) (String.length sql - at - 2)
    in
    let noise =
      String.concat ""
        (List.init (Random.State.int rng 30) (fun _ ->
             junk.(Random.State.int rng (Array.length junk))))
    in
    List.iter
      (fun s -> Alcotest.(check bool) s true (same_lowering g s))
      [ mutated; "SELECT " ^ noise ]
  done

(* Parameter ordinals belong to one lowering run: two domains lowering
   at once each number their markers 1 and 2, in lexical order. *)
let test_parameters_per_run () =
  let g = Lazy.force full in
  let sql =
    "SELECT a FROM t WHERE a = ? AND b IN ( SELECT c FROM u WHERE d = ? )"
  in
  let ordinals = function
    | Ast.Query_stmt
        {
          body =
            Ast.Select
              {
                where =
                  Some
                    (Ast.And
                      ( Ast.Comparison (_, _, Ast.Parameter p),
                        Ast.In_subquery
                          {
                            subquery =
                              {
                                body =
                                  Ast.Select
                                    {
                                      where =
                                        Some
                                          (Ast.Comparison (_, _, Ast.Parameter q));
                                      _;
                                    };
                                _;
                              };
                            _;
                          } ));
                _;
              };
          _;
        } ->
      Some (p, q)
    | _ -> None
  in
  let run () =
    let bad = ref 0 in
    for _ = 1 to 1000 do
      match Core.parse_statement g sql with
      | Ok stmt when ordinals stmt = Some (1, 2) -> ()
      | _ -> incr bad
    done;
    !bad
  in
  let d1 = Domain.spawn run and d2 = Domain.spawn run in
  let b1 = Domain.join d1 and b2 = Domain.join d2 in
  Alcotest.(check (pair int int)) "ASTs without ordinals 1 then 2" (0, 0) (b1, b2)

let suite =
  [
    Alcotest.test_case "literals" `Quick test_literals;
    Alcotest.test_case "columns" `Quick test_columns;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic_left_assoc_and_precedence;
    Alcotest.test_case "functions" `Quick test_functions;
    Alcotest.test_case "aggregates" `Quick test_aggregates;
    Alcotest.test_case "case expressions" `Quick test_case_expressions;
    Alcotest.test_case "conditions" `Quick test_conditions;
    Alcotest.test_case "subquery conditions" `Quick test_subquery_conditions;
    Alcotest.test_case "select structure" `Quick test_select_structure;
    Alcotest.test_case "from and joins" `Quick test_from_and_joins;
    Alcotest.test_case "derived table" `Quick test_derived_table;
    Alcotest.test_case "group/order/fetch" `Quick test_group_order_fetch;
    Alcotest.test_case "set operations" `Quick test_set_operations_left_assoc;
    Alcotest.test_case "epoch clause" `Quick test_epoch;
    Alcotest.test_case "insert" `Quick test_insert;
    Alcotest.test_case "insert query/defaults" `Quick test_insert_query_and_defaults;
    Alcotest.test_case "update/delete" `Quick test_update_delete;
    Alcotest.test_case "create table" `Quick test_create_table;
    Alcotest.test_case "data types" `Quick test_types;
    Alcotest.test_case "view/drop/alter" `Quick test_view_drop_alter;
    Alcotest.test_case "grant/revoke" `Quick test_grant_revoke;
    Alcotest.test_case "transactions" `Quick test_transactions;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "schema statements" `Quick test_schema_statements;
    Alcotest.test_case "values statement" `Quick test_values_statement;
    Alcotest.test_case "window function" `Quick test_window_function_lowering;
    Alcotest.test_case "dynamic parameters" `Quick test_parameters_lowering;
    Alcotest.test_case "with clause" `Quick test_with_clause_lowering;
    Alcotest.test_case "updatability" `Quick test_updatability_lowering;
    Alcotest.test_case "corresponding" `Quick test_corresponding_lowering;
    Alcotest.test_case "sequences" `Quick test_sequence_lowering;
    Alcotest.test_case "explain" `Quick test_explain_lowering;
    Alcotest.test_case "rows path = Cst adapter on corpora and mutations" `Quick
      test_rows_match_adapter;
    Alcotest.test_case "parameter ordinals are per run, across domains" `Quick
      test_parameters_per_run;
  ]

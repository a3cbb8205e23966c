(* Integration tests for the executor and database, driven through the full
   dialect front-end (parse -> lower -> execute). *)

module Value = Engine.Value
module Executor = Engine.Executor

let session =
  lazy
    (match Core.generate_dialect Dialects.Dialect.full with
     | Ok g -> Core.session g
     | Error e -> Alcotest.failf "generate: %a" Core.pp_error e)

(* Each test runs against a fresh database. *)
let fresh_session () =
  Core.session (Core.session_parser (Lazy.force session))

(* What a case does to its database, in order, for the differential
   executor test to replay against both executors. *)
type action =
  | Sql of string
  | Prepared of string * Value.t list
  | Set_user of string option

let recording : action list ref option ref = ref None

let record action =
  match !recording with Some log -> log := action :: !log | None -> ()

let exec s sql =
  record (Sql sql);
  Core.run s sql

let run_prepared s sql values =
  record (Prepared (sql, values));
  Core.run_prepared s sql values

let set_user s user =
  record (Set_user user);
  Engine.Database.set_user (Core.database s) user

let run s sql =
  match exec s sql with
  | Ok outcome -> outcome
  | Error e -> Alcotest.failf "run %S: %a" sql Core.pp_error e

let run_err s sql =
  match exec s sql with
  | Ok _ -> Alcotest.failf "expected error: %s" sql
  | Error e -> Fmt.str "%a" Core.pp_error e

let rows s sql =
  match run s sql with
  | Executor.Rows rs -> rs.Executor.rows
  | _ -> Alcotest.failf "expected rows: %s" sql

let columns s sql =
  match run s sql with
  | Executor.Rows rs -> rs.Executor.columns
  | _ -> Alcotest.failf "expected rows: %s" sql

let affected s sql =
  match run s sql with
  | Executor.Affected n -> n
  | _ -> Alcotest.failf "expected affected count: %s" sql

let setup_items s =
  ignore (run s "CREATE TABLE items (id INTEGER PRIMARY KEY, name VARCHAR(20) NOT NULL, price DECIMAL(8, 2), qty INTEGER DEFAULT 0)");
  ignore (run s "INSERT INTO items (id, name, price, qty) VALUES (1, 'bolt', 0.25, 100), (2, 'nut', 0.10, 250), (3, 'gear', 12.50, 8), (4, 'axle', NULL, 2)")

let check_rows name expected actual =
  Alcotest.(check (list (list string))) name expected
    (List.map (List.map Value.to_string) actual)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_projection_and_where () =
  let s = fresh_session () in
  setup_items s;
  check_rows "filter and project"
    [ [ "bolt"; "0.25" ]; [ "nut"; "0.1" ] ]
    (rows s "SELECT name, price FROM items WHERE price < 1");
  check_rows "null price never matches" []
    (rows s "SELECT name FROM items WHERE price > 100 OR price <= 0")

let test_star_and_aliases () =
  let s = fresh_session () in
  setup_items s;
  Alcotest.(check (list string)) "star columns" [ "id"; "name"; "price"; "qty" ]
    (columns s "SELECT * FROM items");
  Alcotest.(check (list string)) "alias column" [ "label" ]
    (columns s "SELECT name AS label FROM items");
  Alcotest.(check (list string)) "expression column synthesized" [ "column1" ]
    (columns s "SELECT price * 2 FROM items")

let test_arithmetic_and_nulls () =
  let s = fresh_session () in
  setup_items s;
  check_rows "null propagates through arithmetic" [ [ "NULL" ] ]
    (rows s "SELECT price * 2 FROM items WHERE id = 4")

let test_order_by_and_limit () =
  let s = fresh_session () in
  setup_items s;
  check_rows "desc with fetch"
    [ [ "gear" ]; [ "bolt" ] ]
    (rows s "SELECT name FROM items ORDER BY price DESC FETCH FIRST 2 ROWS ONLY");
  check_rows "nulls last by default"
    [ [ "nut" ]; [ "bolt" ]; [ "gear" ]; [ "axle" ] ]
    (rows s "SELECT name FROM items ORDER BY price ASC");
  check_rows "nulls first"
    [ [ "axle" ]; [ "nut" ]; [ "bolt" ]; [ "gear" ] ]
    (rows s "SELECT name FROM items ORDER BY price ASC NULLS FIRST")

let test_distinct () =
  let s = fresh_session () in
  ignore (run s "CREATE TABLE t (a INTEGER)");
  ignore (run s "INSERT INTO t (a) VALUES (1), (2), (1), (NULL), (NULL)");
  check_int "distinct collapses nulls" 3
    (List.length (rows s "SELECT DISTINCT a FROM t"))

let test_aggregates () =
  let s = fresh_session () in
  setup_items s;
  check_rows "count star" [ [ "4" ] ] (rows s "SELECT COUNT(*) FROM items");
  check_rows "count skips nulls" [ [ "3" ] ] (rows s "SELECT COUNT(price) FROM items");
  check_rows "sum/min/max" [ [ "12.85"; "0.1"; "12.5" ] ]
    (rows s "SELECT SUM(price), MIN(price), MAX(price) FROM items");
  check_rows "avg" [ [ "175.0" ] ] (rows s "SELECT AVG(qty) FROM items WHERE qty >= 100")

let test_group_by_having () =
  let s = fresh_session () in
  ignore (run s "CREATE TABLE sales (region VARCHAR(10), amount INTEGER)");
  ignore
    (run s
       "INSERT INTO sales (region, amount) VALUES ('n', 10), ('n', 20), ('s', 5), ('s', 1), ('w', 100)");
  check_rows "group sums"
    [ [ "n"; "30" ]; [ "s"; "6" ]; [ "w"; "100" ] ]
    (rows s "SELECT region, SUM(amount) FROM sales GROUP BY region ORDER BY region ASC");
  check_rows "having filters groups"
    [ [ "n" ]; [ "w" ] ]
    (rows s "SELECT region FROM sales GROUP BY region HAVING SUM(amount) > 10 ORDER BY region ASC")

let test_aggregate_without_group () =
  let s = fresh_session () in
  ignore (run s "CREATE TABLE empty_t (a INTEGER)");
  check_rows "count over empty" [ [ "0" ] ] (rows s "SELECT COUNT(*) FROM empty_t");
  check_rows "sum over empty is null" [ [ "NULL" ] ]
    (rows s "SELECT SUM(a) FROM empty_t")

let test_joins () =
  let s = fresh_session () in
  ignore (run s "CREATE TABLE t (k INTEGER, v VARCHAR(5))");
  ignore (run s "CREATE TABLE u (k INTEGER, w VARCHAR(5))");
  ignore (run s "INSERT INTO t (k, v) VALUES (1, 'a'), (2, 'b'), (3, 'c')");
  ignore (run s "INSERT INTO u (k, w) VALUES (2, 'x'), (3, 'y'), (4, 'z')");
  check_rows "inner join"
    [ [ "b"; "x" ]; [ "c"; "y" ] ]
    (rows s "SELECT t.v, u.w FROM t INNER JOIN u ON t.k = u.k ORDER BY t.v ASC");
  check_rows "left join pads nulls"
    [ [ "a"; "NULL" ]; [ "b"; "x" ]; [ "c"; "y" ] ]
    (rows s "SELECT t.v, u.w FROM t LEFT OUTER JOIN u ON t.k = u.k ORDER BY t.v ASC");
  check_int "full outer covers both sides" 4
    (List.length (rows s "SELECT t.v, u.w FROM t FULL OUTER JOIN u ON t.k = u.k"));
  check_int "cross join" 9 (List.length (rows s "SELECT t.v FROM t CROSS JOIN u"));
  check_rows "using"
    [ [ "b"; "x" ]; [ "c"; "y" ] ]
    (rows s "SELECT v, w FROM t INNER JOIN u USING (k) ORDER BY v ASC");
  check_rows "natural join"
    [ [ "b"; "x" ]; [ "c"; "y" ] ]
    (rows s "SELECT v, w FROM t NATURAL JOIN u ORDER BY v ASC")

let test_subqueries () =
  let s = fresh_session () in
  setup_items s;
  check_rows "in subquery"
    [ [ "bolt" ]; [ "nut" ] ]
    (rows s "SELECT name FROM items WHERE id IN (SELECT id FROM items WHERE price < 1) ORDER BY name ASC");
  check_rows "correlated exists"
    [ [ "bolt" ]; [ "nut" ] ]
    (rows s "SELECT name FROM items WHERE EXISTS (SELECT id FROM items AS other WHERE other.price > items.price + 10)");
  check_rows "scalar subquery" [ [ "4" ] ]
    (rows s "SELECT (SELECT COUNT(*) FROM items) FROM items WHERE id = 1");
  check_rows "quantified all"
    [ [ "gear" ] ]
    (rows s "SELECT name FROM items WHERE price >= ALL (SELECT price FROM items WHERE price IS NOT NULL)")

let test_derived_tables_and_views () =
  let s = fresh_session () in
  setup_items s;
  check_rows "derived table"
    [ [ "bolt" ] ]
    (rows s "SELECT n FROM (SELECT name AS n, price FROM items WHERE qty = 100) AS d (n, p)");
  ignore (run s "CREATE VIEW cheap (name, price) AS SELECT name, price FROM items WHERE price < 1");
  check_rows "view rows"
    [ [ "bolt"; "0.25" ]; [ "nut"; "0.1" ] ]
    (rows s "SELECT name, price FROM cheap ORDER BY price DESC");
  ignore (run s "DROP VIEW cheap");
  check_bool "view gone" true
    (Astring_contains.contains (run_err s "SELECT name FROM cheap") "unknown table")

let test_set_operations () =
  let s = fresh_session () in
  ignore (run s "CREATE TABLE a (x INTEGER)");
  ignore (run s "CREATE TABLE b (x INTEGER)");
  ignore (run s "INSERT INTO a (x) VALUES (1), (2), (2), (3)");
  ignore (run s "INSERT INTO b (x) VALUES (2), (4)");
  check_int "union distinct" 4 (List.length (rows s "SELECT x FROM a UNION SELECT x FROM b"));
  check_int "union all" 6 (List.length (rows s "SELECT x FROM a UNION ALL SELECT x FROM b"));
  check_rows "except" [ [ "1" ]; [ "3" ] ]
    (rows s "SELECT x FROM a EXCEPT SELECT x FROM b ORDER BY x ASC");
  check_rows "intersect" [ [ "2" ] ]
    (rows s "SELECT x FROM a INTERSECT SELECT x FROM b")

let test_string_functions () =
  let s = fresh_session () in
  setup_items s;
  check_rows "string pipeline"
    [ [ "BOLT"; "bo"; "4" ] ]
    (rows s "SELECT UPPER(name), SUBSTRING(name FROM 1 FOR 2), CHAR_LENGTH(name) FROM items WHERE id = 1");
  check_rows "like"
    [ [ "bolt" ] ]
    (rows s "SELECT name FROM items WHERE name LIKE 'b%'");
  check_rows "like underscore"
    [ [ "bolt" ] ]
    (rows s "SELECT name FROM items WHERE name LIKE '_olt'");
  check_rows "case expression"
    [ [ "cheap" ]; [ "cheap" ]; [ "pricey" ]; [ "unknown" ] ]
    (rows s
       "SELECT CASE WHEN price < 1 THEN 'cheap' WHEN price >= 1 THEN 'pricey' ELSE 'unknown' END FROM items ORDER BY id ASC")

let test_insert_constraints () =
  let s = fresh_session () in
  setup_items s;
  check_bool "pk violation" true
    (Astring_contains.contains
       (run_err s "INSERT INTO items (id, name) VALUES (1, 'dup')")
       "duplicate");
  check_bool "not null violation" true
    (Astring_contains.contains
       (run_err s "INSERT INTO items (id) VALUES (9)")
       "null");
  check_int "default column filled" 1
    (affected s "INSERT INTO items (id, name) VALUES (9, 'pin')");
  check_rows "default value" [ [ "0" ] ] (rows s "SELECT qty FROM items WHERE id = 9")

let test_check_and_fk_constraints () =
  let s = fresh_session () in
  ignore (run s "CREATE TABLE parents (id INTEGER PRIMARY KEY)");
  ignore (run s "CREATE TABLE kids (id INTEGER, parent INTEGER REFERENCES parents (id), age INTEGER CHECK (age >= 0))");
  ignore (run s "INSERT INTO parents (id) VALUES (1)");
  check_int "fk ok" 1 (affected s "INSERT INTO kids (id, parent, age) VALUES (1, 1, 4)");
  check_bool "fk violation" true
    (Astring_contains.contains
       (run_err s "INSERT INTO kids (id, parent, age) VALUES (2, 99, 4)")
       "foreign key");
  check_bool "check violation" true
    (Astring_contains.contains
       (run_err s "INSERT INTO kids (id, parent, age) VALUES (3, 1, -2)")
       "CHECK")

let test_update_delete () =
  let s = fresh_session () in
  setup_items s;
  check_int "update count" 2 (affected s "UPDATE items SET qty = qty + 1 WHERE price < 1");
  check_rows "updated" [ [ "101" ]; [ "251" ] ]
    (rows s "SELECT qty FROM items WHERE price < 1 ORDER BY id ASC");
  check_int "delete count" 1 (affected s "DELETE FROM items WHERE price IS NULL");
  check_rows "remaining" [ [ "3" ] ] (rows s "SELECT COUNT(*) FROM items")

let test_insert_from_query () =
  let s = fresh_session () in
  setup_items s;
  ignore (run s "CREATE TABLE archive (id INTEGER, name VARCHAR(20))");
  check_int "insert-select" 2
    (affected s "INSERT INTO archive (id, name) SELECT id, name FROM items WHERE price < 1");
  check_rows "archived" [ [ "bolt" ]; [ "nut" ] ]
    (rows s "SELECT name FROM archive ORDER BY id ASC")

let test_merge () =
  let s = fresh_session () in
  ignore (run s "CREATE TABLE inv (sku INTEGER, qty INTEGER)");
  ignore (run s "CREATE TABLE arrivals (sku INTEGER, qty INTEGER)");
  ignore (run s "INSERT INTO inv (sku, qty) VALUES (1, 10), (2, 20)");
  ignore (run s "INSERT INTO arrivals (sku, qty) VALUES (2, 5), (3, 7)");
  check_int "merge affects 2" 2
    (affected s
       "MERGE INTO inv USING arrivals ON inv.sku = arrivals.sku WHEN MATCHED THEN UPDATE SET qty = inv.qty + arrivals.qty WHEN NOT MATCHED THEN INSERT (sku, qty) VALUES (arrivals.sku, arrivals.qty)");
  check_rows "merged"
    [ [ "1"; "10" ]; [ "2"; "25" ]; [ "3"; "7" ] ]
    (rows s "SELECT sku, qty FROM inv ORDER BY sku ASC")

(* A NOT MATCHED insert whose values do not match its columns, listed or
   implied, is an execution error, as INSERT's is. *)
let test_merge_insert_arity () =
  let s = fresh_session () in
  ignore (run s "CREATE TABLE m (a INTEGER, b INTEGER)");
  ignore (run s "CREATE TABLE src (a INTEGER)");
  ignore (run s "INSERT INTO src (a) VALUES (1)");
  List.iter
    (fun sql ->
      check_bool sql true
        (Astring_contains.contains (run_err s sql) "arity mismatch"))
    [
      "MERGE INTO m USING src ON m.a = src.a WHEN NOT MATCHED THEN INSERT VALUES (src.a)";
      "MERGE INTO m USING src ON m.a = src.a WHEN NOT MATCHED THEN INSERT (a, b) VALUES (src.a)";
    ];
  check_rows "nothing inserted" [] (rows s "SELECT a, b FROM m")

let test_alter_table () =
  let s = fresh_session () in
  setup_items s;
  ignore (run s "ALTER TABLE items ADD COLUMN note VARCHAR(10) DEFAULT 'n/a'");
  check_rows "new column backfilled" [ [ "n/a" ] ]
    (rows s "SELECT note FROM items WHERE id = 1");
  ignore (run s "ALTER TABLE items DROP COLUMN note");
  check_bool "column gone" true
    (Astring_contains.contains (run_err s "SELECT note FROM items") "unknown column")

let test_transactions () =
  let s = fresh_session () in
  setup_items s;
  ignore (run s "START TRANSACTION");
  ignore (run s "DELETE FROM items");
  check_rows "emptied inside txn" [ [ "0" ] ] (rows s "SELECT COUNT(*) FROM items");
  ignore (run s "ROLLBACK");
  check_rows "restored" [ [ "4" ] ] (rows s "SELECT COUNT(*) FROM items");
  ignore (run s "START TRANSACTION");
  ignore (run s "DELETE FROM items WHERE id = 1");
  ignore (run s "COMMIT");
  check_rows "committed" [ [ "3" ] ] (rows s "SELECT COUNT(*) FROM items")

let test_savepoints () =
  let s = fresh_session () in
  setup_items s;
  ignore (run s "SAVEPOINT sp1");
  ignore (run s "DELETE FROM items WHERE id = 1");
  ignore (run s "SAVEPOINT sp2");
  ignore (run s "DELETE FROM items");
  ignore (run s "ROLLBACK TO SAVEPOINT sp2");
  check_rows "sp2 state" [ [ "3" ] ] (rows s "SELECT COUNT(*) FROM items");
  ignore (run s "ROLLBACK TO SAVEPOINT sp1");
  check_rows "sp1 state" [ [ "4" ] ] (rows s "SELECT COUNT(*) FROM items");
  check_bool "unknown savepoint" true
    (Astring_contains.contains (run_err s "ROLLBACK TO SAVEPOINT ghost") "unknown savepoint")

let test_grants_recorded () =
  let s = fresh_session () in
  setup_items s;
  ignore (run s "GRANT SELECT, UPDATE ON TABLE items TO alice");
  check_int "grant recorded" 1
    (List.length (Engine.Catalog.grants (Engine.Database.catalog (Core.database s))));
  ignore (run s "REVOKE UPDATE ON TABLE items FROM alice");
  check_int "revoked" 0
    (List.length (Engine.Catalog.grants (Engine.Database.catalog (Core.database s))))

let test_errors () =
  let s = fresh_session () in
  setup_items s;
  check_bool "unknown table" true
    (Astring_contains.contains (run_err s "SELECT a FROM ghost") "unknown table");
  check_bool "unknown column" true
    (Astring_contains.contains (run_err s "SELECT ghost FROM items") "unknown column");
  check_bool "division by zero" true
    (Astring_contains.contains (run_err s "SELECT 1 / 0 FROM items") "division");
  check_bool "duplicate table" true
    (Astring_contains.contains (run_err s "CREATE TABLE items (a INTEGER)") "exists");
  check_bool "aggregate misuse" true
    (Astring_contains.contains
       (run_err s "SELECT name FROM items WHERE SUM(price) > 1")
       "aggregate")

let test_deterministic_functions () =
  let s = fresh_session () in
  setup_items s;
  check_rows "current date is fixed" [ [ "2008-03-29"; "sqlpl" ] ]
    (rows s "SELECT CURRENT_DATE, CURRENT_USER FROM items WHERE id = 1")



let test_with_clause () =
  let s = fresh_session () in
  setup_items s;
  check_rows "simple CTE"
    [ [ "bolt" ]; [ "nut" ] ]
    (rows s
       "WITH cheap (n, p) AS (SELECT name, price FROM items WHERE price < 1) \
        SELECT n FROM cheap ORDER BY p DESC");
  check_rows "two CTEs, second sees first"
    [ [ "2" ] ]
    (rows s
       "WITH a (x) AS (SELECT id FROM items WHERE price < 1), b (y) AS \
        (SELECT COUNT(*) FROM a) SELECT y FROM b");
  check_bool "CTE does not leak into the catalog" true
    (Astring_contains.contains (run_err s "SELECT n FROM cheap") "unknown table")

let test_with_recursive () =
  let s = fresh_session () in
  ignore (run s "CREATE TABLE emp (id INTEGER, boss INTEGER)");
  ignore
    (run s "INSERT INTO emp (id, boss) VALUES (1, NULL), (2, 1), (3, 2), (4, 3), (5, 1)");
  check_rows "transitive closure from the root"
    [ [ "1" ]; [ "2" ]; [ "3" ]; [ "4" ]; [ "5" ] ]
    (rows s
       "WITH RECURSIVE reach (id) AS (SELECT id FROM emp WHERE boss IS NULL \
        UNION SELECT e.id FROM emp AS e INNER JOIN reach ON e.boss = reach.id) \
        SELECT id FROM reach ORDER BY id ASC")

let test_sequences () =
  let s = fresh_session () in
  ignore (run s "CREATE SEQUENCE ids START WITH 100 INCREMENT BY 5");
  ignore (run s "CREATE TABLE orders (id INTEGER, what VARCHAR(10))");
  ignore (run s "INSERT INTO orders (id, what) VALUES (NEXT VALUE FOR ids, 'a'), (NEXT VALUE FOR ids, 'b')");
  check_rows "sequence advances"
    [ [ "100"; "a" ]; [ "105"; "b" ] ]
    (rows s "SELECT id, what FROM orders ORDER BY id ASC");
  check_rows "select next value" [ [ "110" ] ]
    (rows s "SELECT NEXT VALUE FOR ids FROM orders WHERE what = 'a'");
  check_bool "duplicate sequence" true
    (Astring_contains.contains (run_err s "CREATE SEQUENCE ids") "exists");
  ignore (run s "DROP SEQUENCE ids");
  check_bool "dropped" true
    (Astring_contains.contains
       (run_err s "SELECT NEXT VALUE FOR ids FROM orders")
       "does not exist")

let test_sequences_transactional () =
  let s = fresh_session () in
  ignore (run s "CREATE SEQUENCE ids");
  ignore (run s "CREATE TABLE t0 (a INTEGER)");
  ignore (run s "INSERT INTO t0 (a) VALUES (0)");
  ignore (run s "START TRANSACTION");
  check_rows "first value" [ [ "1" ] ] (rows s "SELECT NEXT VALUE FOR ids FROM t0");
  ignore (run s "ROLLBACK");
  check_rows "rollback restores the counter" [ [ "1" ] ]
    (rows s "SELECT NEXT VALUE FOR ids FROM t0")

let test_overlay_and_octet_length () =
  let s = fresh_session () in
  setup_items s;
  check_rows "overlay"
    [ [ "bXXt"; "4" ] ]
    (rows s
       "SELECT OVERLAY(name PLACING 'XX' FROM 2 FOR 2), OCTET_LENGTH(name)         FROM items WHERE id = 1");
  check_rows "overlay default length"
    [ [ "bZZZ" ] ]
    (rows s "SELECT OVERLAY(name PLACING 'ZZZ' FROM 2) FROM items WHERE id = 1")

let test_interval_values () =
  let s = fresh_session () in
  ignore (run s "CREATE TABLE spans (d INTERVAL DAY TO HOUR)");
  ignore (run s "INSERT INTO spans (d) VALUES (INTERVAL '5 12' DAY TO HOUR)");
  check_rows "interval stored textually" [ [ "5 12" ] ] (rows s "SELECT d FROM spans")

let test_privilege_enforcement () =
  let s = fresh_session () in
  setup_items s;
  ignore (run s "CREATE TABLE audit (who VARCHAR(10))");
  ignore (run s "GRANT SELECT ON TABLE items TO alice");
  ignore (run s "GRANT INSERT ON TABLE audit TO PUBLIC");
  set_user s (Some "alice");
  check_rows "granted select works" [ [ "4" ] ] (rows s "SELECT COUNT(*) FROM items");
  check_int "public insert works" 1
    (affected s "INSERT INTO audit (who) VALUES ('alice')");
  check_bool "update denied" true
    (Astring_contains.contains
       (run_err s "UPDATE items SET qty = 0")
       "lacks UPDATE");
  check_bool "select on unlisted table denied" true
    (Astring_contains.contains (run_err s "SELECT who FROM audit") "lacks SELECT");
  check_bool "subquery reads are checked" true
    (Astring_contains.contains
       (run_err s "SELECT COUNT(*) FROM items WHERE id IN (SELECT 1 FROM audit)")
       "lacks SELECT");
  check_bool "ddl denied" true
    (Astring_contains.contains
       (run_err s "CREATE TABLE sneaky (a INTEGER)")
       "may not run");
  check_bool "grant denied" true
    (Astring_contains.contains
       (run_err s "GRANT SELECT ON TABLE audit TO alice")
       "may not run");
  (* Back to the owner session; revocation takes effect immediately. *)
  set_user s None;
  ignore (run s "REVOKE SELECT ON TABLE items FROM alice");
  set_user s (Some "alice");
  check_bool "revoked" true
    (Astring_contains.contains (run_err s "SELECT id FROM items") "lacks SELECT");
  set_user s None

let test_session_authorization () =
  let s = fresh_session () in
  setup_items s;
  ignore (run s "GRANT SELECT ON TABLE items TO alice");
  (match run s "SET SESSION AUTHORIZATION alice" with
   | Executor.Done msg ->
     check_bool "switch message" true (Astring_contains.contains msg "alice")
   | _ -> Alcotest.fail "done expected");
  check_rows "alice can read" [ [ "4" ] ] (rows s "SELECT COUNT(*) FROM items");
  check_bool "alice cannot delete" true
    (Astring_contains.contains (run_err s "DELETE FROM items") "lacks DELETE");
  ignore (run s "RESET SESSION AUTHORIZATION");
  check_int "owner can delete again" 4 (affected s "DELETE FROM items")

let test_between_symmetric () =
  let s = fresh_session () in
  setup_items s;
  check_rows "plain between with swapped bounds is empty" [ [ "0" ] ]
    (rows s "SELECT COUNT(*) FROM items WHERE id BETWEEN 3 AND 1");
  check_rows "symmetric accepts swapped bounds" [ [ "3" ] ]
    (rows s "SELECT COUNT(*) FROM items WHERE id BETWEEN SYMMETRIC 3 AND 1")

let test_corresponding () =
  let s = fresh_session () in
  ignore (run s "CREATE TABLE l (a INTEGER, b INTEGER)");
  ignore (run s "CREATE TABLE r (b INTEGER, c INTEGER)");
  ignore (run s "INSERT INTO l (a, b) VALUES (1, 10), (2, 20)");
  ignore (run s "INSERT INTO r (b, c) VALUES (20, 7), (30, 8)");
  check_rows "union corresponding on the shared column"
    [ [ "10" ]; [ "20" ]; [ "30" ] ]
    (rows s "SELECT a, b FROM l UNION CORRESPONDING SELECT b, c FROM r ORDER BY b ASC");
  check_rows "intersect corresponding"
    [ [ "20" ] ]
    (rows s "SELECT a, b FROM l INTERSECT CORRESPONDING SELECT b, c FROM r");
  check_bool "no common columns is an error" true
    (Astring_contains.contains
       (run_err s "SELECT a FROM l UNION CORRESPONDING SELECT c FROM r")
       "common")

let test_dynamic_parameters () =
  let s = fresh_session () in
  setup_items s;
  let run_p sql values =
    match run_prepared s sql values with
    | Ok (Executor.Rows rs) -> rs.Executor.rows
    | Ok _ -> Alcotest.fail "rows expected"
    | Error e -> Alcotest.failf "run_prepared: %a" Core.pp_error e
  in
  check_rows "one parameter"
    [ [ "bolt" ] ]
    (run_p "SELECT name FROM items WHERE id = ?" [ Value.Int 1 ]);
  check_rows "two parameters in order"
    [ [ "nut" ]; [ "gear" ] ]
    (run_p "SELECT name FROM items WHERE id > ? AND id <= ?"
       [ Value.Int 1; Value.Int 3 ]);
  (match run_prepared s "SELECT name FROM items WHERE id = ?" [] with
   | Error e ->
     check_bool "missing binding reported" true
       (Astring_contains.contains (Fmt.str "%a" Core.pp_error e) "parameter ?1")
   | Ok _ -> Alcotest.fail "missing binding must fail");
  (* Unbound execution through plain run also fails cleanly. *)
  check_bool "unbound parameter at evaluation" true
    (Astring_contains.contains
       (run_err s "SELECT name FROM items WHERE id = ?")
       "unbound dynamic parameter")

let test_explain () =
  let s = fresh_session () in
  setup_items s;
  let plan sql =
    match run s sql with
    | Executor.Rows rs ->
      String.concat "\n"
        (List.map (fun row -> String.concat "" (List.map Value.to_string row)) rs.Executor.rows)
    | _ -> Alcotest.fail "rows expected"
  in
  let p =
    plan
      "EXPLAIN SELECT name, COUNT(*) FROM items WHERE price < 1 GROUP BY name ORDER BY name ASC"
  in
  List.iter
    (fun needle -> check_bool (needle ^ " in plan") true (Astring_contains.contains p needle))
    [ "scan items (4 rows)"; "filter:"; "group by 1 key(s)"; "project 2 item(s)"; "sort by 1 key(s)" ];
  let p2 = plan "EXPLAIN SELECT i.name FROM items AS i INNER JOIN items AS j ON i.id = j.id" in
  check_bool "equi-join hashes" true (Astring_contains.contains p2 "hash inner join");
  let p3 = plan "EXPLAIN SELECT i.name FROM items AS i INNER JOIN items AS j ON i.id < j.id" in
  check_bool "non-equi join loops" true
    (Astring_contains.contains p3 "nested-loop inner join")

let test_quoted_identifiers_end_to_end () =
  let s = fresh_session () in
  ignore (run s "CREATE TABLE \"Weird Table\" (\"A Col\" INTEGER)");
  check_int "insert through quoted names" 1
    (affected s "INSERT INTO \"Weird Table\" (\"A Col\") VALUES (7)");
  check_rows "select through quoted names" [ [ "7" ] ]
    (rows s "SELECT \"A Col\" FROM \"Weird Table\"")

let test_view_over_join () =
  let s = fresh_session () in
  ignore (run s "CREATE TABLE t (k INTEGER, v VARCHAR(5))");
  ignore (run s "CREATE TABLE u (k INTEGER, w VARCHAR(5))");
  ignore (run s "INSERT INTO t (k, v) VALUES (1, 'a'), (2, 'b')");
  ignore (run s "INSERT INTO u (k, w) VALUES (2, 'x')");
  ignore
    (run s
       "CREATE VIEW joined (v, w) AS SELECT t.v, u.w FROM t INNER JOIN u ON t.k = u.k");
  check_rows "view over a join" [ [ "b"; "x" ] ] (rows s "SELECT v, w FROM joined");
  check_rows "view composes with further filtering" [ [ "x" ] ]
    (rows s "SELECT w FROM joined WHERE v = 'b'")

let test_nested_ctes () =
  let s = fresh_session () in
  ignore (run s "CREATE TABLE base (n INTEGER)");
  ignore (run s "INSERT INTO base (n) VALUES (1), (2), (3)");
  (* b = {2,3,4}; the n > 1 filter keeps all three; their sum is 9. *)
  check_rows "CTE over CTE over CTE"
    [ [ "9" ] ]
    (rows s
       "WITH a (n) AS (SELECT n FROM base), b (n) AS (SELECT n + 1 FROM a), \
        c (total) AS (SELECT SUM(n) FROM b WHERE n > 1) SELECT total FROM c \
        WHERE total > 0")

let test_insert_coercion () =
  let s = fresh_session () in
  ignore (run s "CREATE TABLE typed (i INTEGER, d DECIMAL(6, 2), c CHAR(3), b BOOLEAN)");
  ignore (run s "INSERT INTO typed (i, d, c, b) VALUES ('42', 7, 'abcdef', 1)");
  check_rows "values coerced to column types"
    [ [ "42"; "7.0"; "abc"; "TRUE" ] ]
    (rows s "SELECT i, d, c, b FROM typed");
  check_bool "uncoercible value rejected" true
    (Astring_contains.contains
       (run_err s "INSERT INTO typed (i) VALUES ('xyz')")
       "cannot cast")

let test_column_list_arity () =
  let s = fresh_session () in
  ignore (run s "CREATE TABLE t (a INTEGER, b INTEGER, c INTEGER)");
  ignore (run s "INSERT INTO t (a, b, c) VALUES (1, 2, 3)");
  List.iter
    (fun sql ->
      check_bool sql true
        (Astring_contains.contains (run_err s sql)
           "column list arity mismatch for t"))
    [ "SELECT * FROM t AS x ( p )"; "SELECT c FROM t AS x ( p )" ];
  check_rows "a full column list renames" [ [ "3"; "1" ] ]
    (rows s "SELECT r, p FROM t AS x ( p , q , r )")

let test_values_width () =
  let s = fresh_session () in
  check_bool "ragged VALUES" true
    (Astring_contains.contains
       (run_err s "SELECT * FROM ( VALUES ( 1 ) , ( 2 , 3 ) ) AS d")
       "VALUES rows differ in width")

let test_self_referencing_view () =
  let s = fresh_session () in
  ignore (run s "CREATE TABLE t (a INTEGER)");
  ignore (run s "CREATE VIEW loop_v AS SELECT a FROM loop_v");
  check_bool "view reaching itself" true
    (Astring_contains.contains
       (run_err s "SELECT a FROM loop_v")
       "view loop_v is defined in terms of itself")

let test_outer_join_condition_runs_once_per_pair () =
  let s = fresh_session () in
  ignore (run s "CREATE SEQUENCE probes");
  ignore (run s "CREATE TABLE l (k INTEGER)");
  ignore (run s "CREATE TABLE r (k INTEGER)");
  ignore (run s "INSERT INTO l (k) VALUES (1), (2)");
  ignore (run s "INSERT INTO r (k) VALUES (2), (3), (4)");
  check_int "left join rows" 2
    (List.length
       (rows s
          "SELECT l.k FROM l LEFT OUTER JOIN r ON l.k = r.k AND NEXT VALUE            FOR probes > 0"));
  check_rows "six pairs, six probes" [ [ "7" ] ]
    (rows s "SELECT NEXT VALUE FOR probes FROM l WHERE k = 1")

let cases =
  [
    ("projection and where", test_projection_and_where);
    ("star and aliases", test_star_and_aliases);
    ("arithmetic and nulls", test_arithmetic_and_nulls);
    ("order by and fetch", test_order_by_and_limit);
    ("distinct", test_distinct);
    ("aggregates", test_aggregates);
    ("group by / having", test_group_by_having);
    ("aggregate over empty", test_aggregate_without_group);
    ("joins", test_joins);
    ("subqueries", test_subqueries);
    ("derived tables and views", test_derived_tables_and_views);
    ("set operations", test_set_operations);
    ("string functions and case", test_string_functions);
    ("insert constraints", test_insert_constraints);
    ("check and fk constraints", test_check_and_fk_constraints);
    ("update/delete", test_update_delete);
    ("insert from query", test_insert_from_query);
    ("merge", test_merge);
    ("MERGE INSERT values are arity-checked", test_merge_insert_arity);
    ("alter table", test_alter_table);
    ("transactions", test_transactions);
    ("savepoints", test_savepoints);
    ("grants recorded", test_grants_recorded);
    ("errors", test_errors);
    ("deterministic functions", test_deterministic_functions);
    ("with clause (CTEs)", test_with_clause);
    ("with recursive", test_with_recursive);
    ("sequences", test_sequences);
    ("sequences roll back", test_sequences_transactional);
    ("overlay/octet_length", test_overlay_and_octet_length);
    ("interval values", test_interval_values);
    ("privilege enforcement", test_privilege_enforcement);
    ("session authorization", test_session_authorization);
    ("between symmetric", test_between_symmetric);
    ("corresponding set ops", test_corresponding);
    ("dynamic parameters", test_dynamic_parameters);
    ("explain", test_explain);
    ("quoted identifiers end-to-end", test_quoted_identifiers_end_to_end);
    ("view over join", test_view_over_join);
    ("nested CTEs", test_nested_ctes);
    ("insert coercion", test_insert_coercion);
    ("base-table column lists are arity-checked", test_column_list_arity);
    ("VALUES rows agree in width", test_values_width);
    ("a view reaching itself is an error", test_self_referencing_view);
    ( "outer-join condition runs once per pair",
      test_outer_join_condition_runs_once_per_pair );
  ]

let suite = List.map (fun (name, f) -> Alcotest.test_case name `Quick f) cases

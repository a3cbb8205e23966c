(* Shared SQL corpora: statements grouped by the features they exercise.
   Used by the integration tests (accept/reject matrices). *)

let minimal_accept =
  [
    "SELECT a FROM t";
    "SELECT DISTINCT a FROM t";
    "SELECT ALL a FROM t";
    "SELECT a FROM t WHERE a = b";
    "SELECT DISTINCT a FROM t WHERE x = y";
  ]

(* Statements outside the §3.2 worked example's language. *)
let minimal_reject =
  [
    "SELECT a, b FROM t";
    "SELECT * FROM t";
    "SELECT a FROM t, u";
    "SELECT a FROM t WHERE a < b";
    "SELECT a FROM t WHERE a = 1";
    "SELECT a FROM t ORDER BY a";
    "SELECT COUNT(a) FROM t";
    "INSERT INTO t (a) VALUES (1)";
    "SELECT a AS x FROM t";
  ]

let scql_accept =
  [
    "CREATE TABLE purse (id INTEGER NOT NULL, balance INTEGER, holder VARCHAR(30))";
    "INSERT INTO purse (id, balance, holder) VALUES (1, 500, 'alice')";
    "SELECT balance FROM purse WHERE id = 1";
    "SELECT id, balance FROM purse WHERE balance >= 100 AND holder = 'alice'";
    "UPDATE purse SET balance = 400 WHERE id = 1";
    "DELETE FROM purse WHERE id = 1";
    "GRANT SELECT, UPDATE ON TABLE purse TO PUBLIC";
    "REVOKE UPDATE ON TABLE purse FROM PUBLIC";
    "DROP TABLE purse";
    "SELECT * FROM purse";
  ]

let scql_reject =
  [
    "SELECT COUNT(balance) FROM purse";
    "SELECT a FROM t ORDER BY a";
    "SELECT a FROM t, u";
    "SELECT a FROM t INNER JOIN u ON t.x = u.x";
    "SELECT a FROM t GROUP BY a";
    "CREATE VIEW v AS SELECT a FROM t";
    "COMMIT";
    "SELECT a FROM t WHERE a IN (1, 2)";
  ]

let tinysql_accept =
  [
    "SELECT nodeid, light FROM sensors";
    "SELECT nodeid, light FROM sensors EPOCH DURATION 1024";
    "SELECT AVG(temp) FROM sensors WHERE nodeid = 3 SAMPLE PERIOD 2048";
    "SELECT nodeid, AVG(light), MAX(temp) FROM sensors GROUP BY nodeid EPOCH DURATION 1024 SAMPLE PERIOD 10";
    "SELECT COUNT(*) FROM sensors WHERE temp > 25 AND light > 100";
    "SELECT nodeid FROM sensors GROUP BY nodeid HAVING AVG(temp) > 30";
  ]

let tinysql_reject =
  [
    "SELECT nodeid AS n FROM sensors";       (* no column aliases in TinySQL *)
    "SELECT a FROM t, u";                    (* single table only *)
    "SELECT a FROM t INNER JOIN u ON t.x = u.x";
    "SELECT a FROM t ORDER BY a";
    "SELECT a FROM (SELECT b FROM u) AS d";
    "INSERT INTO sensors (nodeid) VALUES (1)";
    "CREATE TABLE t (a INTEGER)";
  ]

let embedded_accept =
  [
    "CREATE TABLE items (id INTEGER PRIMARY KEY, name VARCHAR(20) NOT NULL, price DECIMAL(8, 2) DEFAULT 0, stocked BOOLEAN)";
    "INSERT INTO items (id, name, price, stocked) VALUES (1, 'bolt', 0.25, TRUE), (2, 'nut', 0.1, TRUE)";
    "SELECT name, price FROM items WHERE stocked = TRUE ORDER BY price DESC LIMIT 10";
    "UPDATE items SET price = price * 2 WHERE id = 2";
    "DELETE FROM items WHERE stocked = FALSE";
    "SELECT id, name AS label FROM items WHERE price <= 1 AND id <> 7";
    "DROP TABLE items";
  ]

let embedded_reject =
  [
    "SELECT a FROM t INNER JOIN u ON t.x = u.x";
    "SELECT COUNT(*) FROM items";
    "SELECT a FROM t UNION SELECT b FROM u";
    "SELECT a FROM t FETCH FIRST 3 ROWS ONLY";  (* embedded uses LIMIT *)
    "GRANT SELECT ON TABLE items TO alice";
    "SELECT CASE WHEN a = 1 THEN 2 ELSE 3 END FROM t";
    "SELECT nodeid FROM sensors EPOCH DURATION 10";
  ]

let analytics_accept =
  [
    "SELECT r.region, SUM(s.amount) AS total FROM sales AS s INNER JOIN regions AS r ON s.region_id = r.id WHERE s.yr = 2007 GROUP BY r.region HAVING SUM(s.amount) > 1000 ORDER BY total DESC FETCH FIRST 10 ROWS ONLY";
    "SELECT region, yr, SUM(amount) FROM sales GROUP BY ROLLUP (region, yr)";
    "SELECT a FROM t WHERE a > ALL (SELECT b FROM u WHERE u.k = t.k)";
    "SELECT CASE WHEN amount > 100 THEN 'big' ELSE 'small' END, CAST(amount AS INTEGER) FROM sales";
    "SELECT x FROM t UNION ALL SELECT y FROM u INTERSECT SELECT z FROM v";
    "SELECT UPPER(name), SUBSTRING(name FROM 1 FOR 3), CHAR_LENGTH(name) FROM customers";
    "SELECT t.*, u.k FROM t CROSS JOIN u";
    "SELECT a FROM (SELECT b AS a FROM u WHERE b IS NOT NULL) AS d";
    "SELECT COUNT(DISTINCT region) FROM sales";
    "CREATE VIEW top_sales AS SELECT region, SUM(amount) FROM sales GROUP BY region";
    "SELECT a FROM t LEFT OUTER JOIN u USING (k) WHERE u.v IS NULL";
    "WITH top (region, total) AS (SELECT region, SUM(amount) FROM sales GROUP BY region) SELECT region FROM top WHERE total > 100";
    "WITH RECURSIVE chain (id) AS (SELECT id FROM emp WHERE boss IS NULL UNION SELECT e.id FROM emp AS e INNER JOIN chain ON e.boss = chain.id) SELECT id FROM chain";
  ]

let analytics_reject =
  [
    "GRANT SELECT ON TABLE sales TO alice";
    "COMMIT";
    "SELECT nodeid FROM sensors EPOCH DURATION 10";
    "SELECT a FROM t LIMIT 3";                     (* analytics uses FETCH FIRST *)
    "UPDATE t SET a = 1";                          (* no UPDATE in analytics *)
    "MERGE INTO t USING u ON t.a = u.a WHEN MATCHED THEN UPDATE SET a = 1";
  ]

(* Statements every full-dialect component must parse (superset sanity). *)
let full_accept =
  minimal_accept @ scql_accept @ tinysql_accept @ embedded_accept
  @ analytics_accept
  @ [
      "MERGE INTO inventory AS i USING arrivals ON i.sku = arrivals.sku WHEN MATCHED THEN UPDATE SET qty = i.qty + arrivals.qty WHEN NOT MATCHED THEN INSERT (sku, qty) VALUES (arrivals.sku, arrivals.qty)";
      "START TRANSACTION ISOLATION LEVEL SERIALIZABLE";
      "SAVEPOINT before_update";
      "ROLLBACK TO SAVEPOINT before_update";
      "RELEASE SAVEPOINT before_update";
      "COMMIT WORK";
      "ALTER TABLE t ADD COLUMN note VARCHAR(100)";
      "ALTER TABLE t ALTER COLUMN note SET DEFAULT 'n/a'";
      "ALTER TABLE t DROP COLUMN note CASCADE";
      "CREATE SCHEMA retail";
      "SET SCHEMA retail";
      "DROP SCHEMA retail RESTRICT";
      "SELECT EXTRACT(YEAR FROM d), POSITION('a' IN name), TRIM(BOTH 'x' FROM name) FROM t";
      "SELECT CURRENT_DATE, CURRENT_USER FROM t";
      "SELECT COALESCE(a, b, 0), NULLIF(a, b) FROM t";
      "SELECT a FROM t WHERE x SIMILAR TO 'a%'";
      "SELECT a FROM t WHERE d1 OVERLAPS d2";
      "VALUES (1, 'one'), (2, 'two')";
      "SELECT \"Mixed Case Column\" FROM \"Weird Table\"";
      "SELECT name, RANK() OVER (PARTITION BY region ORDER BY amount) FROM sales";
      "SELECT ROW_NUMBER() OVER () FROM t";
      "SELECT a, DENSE_RANK() OVER (ORDER BY a) FROM t WINDOW w AS (PARTITION BY a)";
      "CREATE SEQUENCE order_ids START WITH 100 INCREMENT BY 5";
      "SELECT NEXT VALUE FOR order_ids FROM t";
      "DROP SEQUENCE order_ids";
      "SELECT CAST(d AS INTERVAL DAY TO HOUR), INTERVAL '5' DAY FROM t";
      "SELECT OVERLAY(name PLACING 'xx' FROM 2 FOR 3), OCTET_LENGTH(name) FROM t";
      "SELECT a FROM t WHERE a BETWEEN SYMMETRIC 10 AND 1";
      "SELECT a FROM t ORDER BY a ASC FOR UPDATE OF a, b";
      "SELECT a FROM t FOR READ ONLY";
      "SET SESSION AUTHORIZATION alice";
      "RESET SESSION AUTHORIZATION";
      "SELECT a, b FROM t UNION CORRESPONDING SELECT b, c FROM u";
      "SELECT a FROM t INTERSECT ALL CORRESPONDING SELECT a FROM u";
      "SELECT a FROM t WHERE a = ? AND b > ?";
      "EXPLAIN SELECT a FROM t WHERE a = 1";
    ]

(* Statements exercising features the dialect did NOT select — the rejection
   half of the paper's "exactly the selected subset" claim. Unlike the
   [*_reject] lists above these are constrained to fail in the *parser* (with
   a non-empty expected set), never the scanner: every word lexes as an
   identifier when its keyword feature is unselected, and only punctuation
   and literal classes the dialect's token set declares are used. *)
let unselected_minimal =
  [
    "SELECT a FROM t GROUP BY a";          (* no grouping *)
    "SELECT a FROM t ORDER BY a";          (* no ordering *)
    "SELECT a FROM t EPOCH DURATION x";    (* acquisitional clauses are TinySQL's *)
    "SELECT a FROM t LIMIT b";             (* no fetch/limit *)
    "COMMIT";                              (* no transactions *)
  ]

let unselected_scql =
  [
    "SELECT balance FROM purse GROUP BY balance";   (* no aggregation/grouping *)
    "SELECT balance FROM purse ORDER BY balance";   (* no ordering *)
    "SELECT balance FROM purse EPOCH DURATION 10";  (* no acquisitional clauses *)
    "SELECT a FROM t INNER JOIN u";                 (* single-table only *)
    "COMMIT";                                       (* no transactions *)
  ]

let unselected_tinysql =
  [
    "SELECT nodeid AS n FROM sensors";        (* no column aliases *)
    "SELECT nodeid FROM sensors ORDER BY nodeid";  (* no ordering *)
    "SELECT a FROM t INNER JOIN u";           (* single-table only *)
    "INSERT INTO sensors VALUES ( 1 )";       (* read-only dialect *)
    "GRANT SELECT ON TABLE sensors TO alice"; (* no access control *)
  ]

let unselected_embedded =
  [
    "SELECT nodeid FROM sensors EPOCH DURATION 10";  (* no acquisitional clauses *)
    "SELECT a FROM t UNION SELECT b FROM u";         (* no set operations *)
    "SELECT COUNT ( a ) FROM t";                     (* no aggregation *)
    "SELECT a FROM t INNER JOIN u";                  (* no joins *)
    "GRANT SELECT ON TABLE items TO alice";          (* no access control *)
  ]

let unselected_analytics =
  [
    "UPDATE t SET a = 1";                            (* no UPDATE *)
    "SELECT a FROM t LIMIT 3";                       (* analytics uses FETCH FIRST *)
    "SELECT nodeid FROM sensors EPOCH DURATION 10";  (* no acquisitional clauses *)
    "GRANT SELECT ON TABLE sales TO alice";          (* no access control *)
    "COMMIT";                                        (* no transactions *)
  ]

(* [(dialect, statements)]; the full dialect selects everything, so it has no
   unselected features to exercise. *)
let unselected =
  [
    ("minimal", unselected_minimal);
    ("scql", unselected_scql);
    ("tinysql", unselected_tinysql);
    ("embedded", unselected_embedded);
    ("analytics", unselected_analytics);
  ]

(* Statements no dialect accepts (lexically or syntactically invalid). *)
let always_reject =
  [
    "";
    "SELECT";
    "SELECT FROM t";
    "SELECT a FROM";
    "FROM t SELECT a";
    "SELECT a FROM t WHERE";
    "SELECT a a a FROM t";
    "SELEC a FROM t";
  ]

(* Both sides of every choice point that stays ambiguous at k = 2 in the
   full dialect (the nine points `sqlpl lint full` names): each point is
   met on a lookahead where one branch is viable (the parser commits) and
   on its ambiguous lookahead (the occurrence backtracks). Comments name
   the point and its ambiguous two-token witness. *)
let partial_points_accept =
  [
    (* value_expression_primary, LPAREN LPAREN *)
    "SELECT ((SELECT a FROM t)) FROM u";
    "SELECT ((1) + 2) FROM t";
    "SELECT (SELECT a FROM t) FROM u";
    "SELECT (a + 1) * 2 FROM t";
    "SELECT ((a)) FROM t";
    (* set_function_specification, COUNT LPAREN *)
    "SELECT COUNT(*) FROM t";
    "SELECT COUNT(x) FROM t";
    "SELECT COUNT(DISTINCT x) FROM t";
    "SELECT SUM(x), MAX(y) FROM t GROUP BY z";
    (* select_sublist, IDENT PERIOD *)
    "SELECT t.* FROM t";
    "SELECT t.c FROM t";
    "SELECT t.c, u.* FROM t, u";
    "SELECT c FROM t";
    (* comparison_predicate_tail, EQUALS ANY *)
    "SELECT a FROM t WHERE a = ANY (SELECT b FROM u)";
    "SELECT a FROM t WHERE a < ALL (SELECT b FROM u)";
    "SELECT a FROM t WHERE a = b";
    "SELECT a FROM t WHERE a = (SELECT MAX(b) FROM u)";
    (* in_predicate_value, LPAREN LPAREN *)
    "SELECT a FROM t WHERE a IN ((1), (2))";
    "SELECT a FROM t WHERE a IN ((SELECT b FROM u))";
    "SELECT a FROM t WHERE a IN (1, 2)";
    "SELECT a FROM t WHERE a IN (SELECT b FROM u)";
    (* insert_source, VALUES LPAREN *)
    "INSERT INTO t VALUES (1, 'x')";
    "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')";
    "INSERT INTO t (a, b) SELECT a, b FROM u";
    "INSERT INTO t DEFAULT VALUES";
    (* predicate, ABS LPAREN *)
    "SELECT a FROM t WHERE ABS(a) = 1";
    "SELECT a FROM t WHERE ABS(a) BETWEEN 1 AND 2";
    "SELECT a FROM t WHERE ABS(a) IN (1, 2)";
    "SELECT a FROM t WHERE ABS(a) IS NULL";
    "SELECT a FROM t WHERE a LIKE 'x%'";
    (* boolean_primary, LPAREN ABS *)
    "SELECT a FROM t WHERE (ABS(a)) = 1";
    "SELECT a FROM t WHERE (ABS(a) = 1)";
    "SELECT a FROM t WHERE (ABS(a) = 1) AND b > 2";
    "SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3";
    "SELECT a FROM t WHERE NOT (a > 1)";
    "SELECT a FROM t WHERE b";
    (* trim_operands, ABS LPAREN *)
    "SELECT TRIM(ABS(a) FROM b) FROM t";
    "SELECT TRIM(ABS(a)) FROM t";
    "SELECT TRIM(BOTH 'x' FROM a) FROM t";
    "SELECT TRIM('x' FROM a) FROM t";
    "SELECT TRIM(a) FROM t";
  ]

(* Errors injected on either side of the same nine points, inside the
   construct the point chooses between. *)
let partial_points_reject =
  [
    "SELECT ((SELECT a FROM t) FROM u";
    "SELECT ((1) + ) FROM t";
    "SELECT ((a) b) FROM t";
    "SELECT COUNT(*, x) FROM t";
    "SELECT COUNT(x y) FROM t";
    "SELECT t.* . c FROM t";
    "SELECT t. FROM t";
    "SELECT a FROM t WHERE a = ANY (SELECT FROM u)";
    "SELECT a FROM t WHERE a = ANY ()";
    "SELECT a FROM t WHERE a = b b";
    "SELECT a FROM t WHERE a IN ((1), (2)";
    "SELECT a FROM t WHERE a IN ((1) (2))";
    "SELECT a FROM t WHERE a IN (1 2)";
    "INSERT INTO t VALUES (1, 'x'), (2 'y')";
    "INSERT INTO t VALUES (1, 'x'),";
    "INSERT INTO t SELECT a, FROM u";
    "INSERT INTO t DEFAULT";
    "SELECT a FROM t WHERE ABS(a) =";
    "SELECT a FROM t WHERE ABS(a) BETWEEN 1 2";
    "SELECT a FROM t WHERE (ABS(a) = 1";
    "SELECT a FROM t WHERE (ABS(a)) = = 1";
    "SELECT TRIM(BOTH 'x' a) FROM t";
    "SELECT TRIM(ABS(a) FROM) FROM t";
  ]

(* Statements whose ambiguous occurrence's first derivation cannot finish
   the statement, so the fallback oracle's lazy derivation stream must be
   forced past its first alternative. On VALUES LPAREN, [insert_source]
   first derives [values_clause]; a following set operator leaves that
   derivation unfinished, and only the query form (VALUES as a table value
   constructor) parses. The set operator lies past the INSERT's own
   sequence, so the dispatching runs reject these and the pure rerun
   forces the tail. Accepted on full and analytics. *)
let forced_tail_accept =
  [
    "INSERT INTO t VALUES (1, 'x') UNION SELECT a, b FROM u";
    "INSERT INTO t VALUES (1, 'x'), (2, 'y') EXCEPT SELECT a, b FROM u";
    "INSERT INTO t (a, b) VALUES (1, 'x') INTERSECT VALUES (2, 'y')";
    "INSERT INTO t VALUES (1, 'x') UNION ALL VALUES (2, 'y'), (3, 'z')";
    "SELECT a FROM t WHERE a IN ((SELECT b FROM u) UNION SELECT c FROM v)";
    "SELECT ((SELECT a FROM t) UNION SELECT b FROM u) FROM v";
  ]

(* A stray [)] in each: where the first derivation ends (before the set
   operator), and at the end. A rejecting rerun forces every tail. *)
let forced_tail_reject =
  [
    "INSERT INTO t VALUES (1, 'x') ) UNION SELECT a, b FROM u";
    "INSERT INTO t VALUES (1, 'x') UNION SELECT a, b FROM u )";
    "INSERT INTO t VALUES (1, 'x'), (2, 'y') ) EXCEPT SELECT a, b FROM u";
    "INSERT INTO t VALUES (1, 'x'), (2, 'y') EXCEPT SELECT a, b FROM u )";
    "INSERT INTO t (a, b) VALUES (1, 'x') ) INTERSECT VALUES (2, 'y')";
    "INSERT INTO t (a, b) VALUES (1, 'x') INTERSECT VALUES (2, 'y') )";
    "INSERT INTO t VALUES (1, 'x') ) UNION ALL VALUES (2, 'y'), (3, 'z')";
    "INSERT INTO t VALUES (1, 'x') UNION ALL VALUES (2, 'y'), (3, 'z') )";
    "SELECT a FROM t WHERE a IN ((SELECT b FROM u) ) UNION SELECT c FROM v)";
    "SELECT a FROM t WHERE a IN ((SELECT b FROM u) UNION SELECT c FROM v) )";
    "SELECT ((SELECT a FROM t) ) UNION SELECT b FROM u) FROM v";
    "SELECT ((SELECT a FROM t) UNION SELECT b FROM u) FROM v )";
  ]

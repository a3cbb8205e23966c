(* Per-dialect statement mixes for the E6 acceptance matrix.

   No published corpus accompanies the paper, so the workloads are
   synthesized: four statements in each dialect's style. *)

let minimal_queries =
  [
    "SELECT a FROM t";
    "SELECT DISTINCT a FROM t";
    "SELECT ALL a FROM t WHERE a = b";
    "SELECT a FROM t WHERE x = y";
  ]

let tinysql_queries =
  [
    "SELECT nodeid, light FROM sensors";
    "SELECT nodeid, AVG(temp) FROM sensors WHERE light > 100 GROUP BY nodeid EPOCH DURATION 1024";
    "SELECT COUNT(*) FROM sensors WHERE temp > 25 SAMPLE PERIOD 2048";
    "SELECT nodeid FROM sensors GROUP BY nodeid HAVING AVG(temp) > 30";
  ]

let scql_statements =
  [
    "SELECT balance FROM purse WHERE id = 1";
    "UPDATE purse SET balance = 400 WHERE id = 1";
    "INSERT INTO purse (id, balance) VALUES (7, 100)";
    "DELETE FROM purse WHERE id = 7";
  ]

let embedded_statements =
  [
    "SELECT name, price FROM items WHERE stocked = TRUE ORDER BY price DESC LIMIT 10";
    "INSERT INTO items (id, name, price) VALUES (1, 'bolt', 0.25)";
    "UPDATE items SET price = price * 2 WHERE id = 1";
    "DELETE FROM items WHERE id = 1";
  ]

let analytics_queries =
  [
    "SELECT r.region, SUM(s.amount) AS total FROM sales AS s INNER JOIN regions AS r ON s.region_id = r.id WHERE s.yr = 2007 GROUP BY r.region HAVING SUM(s.amount) > 1000 ORDER BY total DESC FETCH FIRST 10 ROWS ONLY";
    "SELECT a FROM t WHERE a > ALL (SELECT b FROM u WHERE u.k = t.k)";
    "SELECT x FROM t UNION ALL SELECT y FROM u INTERSECT SELECT z FROM v";
    "SELECT CASE WHEN amount > 100 THEN 'big' ELSE 'small' END, CAST(amount AS INTEGER) FROM sales";
  ]

(* The E6 columns, in order. *)
let by_dialect =
  [
    ("minimal", minimal_queries);
    ("scql", scql_statements);
    ("tinysql", tinysql_queries);
    ("embedded", embedded_statements);
    ("analytics", analytics_queries);
  ]

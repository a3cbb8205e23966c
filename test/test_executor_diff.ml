(* Differential executor test: the compiled executor ([Engine.Executor])
   against the tree-walking interpreter it replaced ([Oracle.Interp]).

   Each side gets its own fresh database and runs the same statements.
   After every statement the test compares the outcome (columns and rows
   in order, affected counts, [Done] messages, error messages) and then
   the state: every table's columns and rows, every sequence, the views
   and the grants. Transactions, savepoints and the session user are
   handled by one harness shared by both sides, as [Engine.Database]
   handles them.

   Three inputs: the statements of every [Test_executor] case, a
   fixed-seed batch of [Ast_gen] statements over a schema built from
   [Ast_gen]'s own identifiers (so that many statements resolve and many
   fail), and scripts shaped like the ledger's four workloads. EXPLAIN
   output differs by design — the compiled executor names hash joins —
   and is compared with "hash" read as "nested-loop". *)

open Sql_ast
module Value = Engine.Value
module Catalog = Engine.Catalog
module Executor = Engine.Executor

(* --- One side: a catalog behind an executor -------------------------------- *)

type side = {
  execute : Catalog.t -> Ast.statement -> Executor.outcome;
  catalog : Catalog.t;
  mutable transaction : Catalog.t option;
  mutable savepoints : (string * Catalog.t) list;
  mutable user : string option;
}

let side execute =
  { execute; catalog = Catalog.create (); transaction = None; savepoints = []; user = None }

let oracle () = side Oracle.Interp.run_statement
let production () = side Executor.run_statement

type observed =
  | Rows of string list * Value.t list list
  | Affected of int
  | Done of string
  | Failed of string

let observe = function
  | Executor.Rows rs -> Rows (rs.Executor.columns, rs.Executor.rows)
  | Executor.Affected n -> Affected n
  | Executor.Done m -> Done m

let transaction t (stmt : Ast.transaction_statement) =
  match stmt with
  | Ast.Start_transaction _ ->
    if t.transaction <> None then Failed "transaction already in progress"
    else begin
      t.transaction <- Some (Catalog.snapshot t.catalog);
      Done "transaction started"
    end
  | Ast.Commit ->
    t.transaction <- None;
    t.savepoints <- [];
    Done "committed"
  | Ast.Rollback None -> (
    match t.transaction with
    | None -> Failed "no transaction in progress"
    | Some snapshot ->
      Catalog.restore t.catalog ~from:snapshot;
      t.transaction <- None;
      t.savepoints <- [];
      Done "rolled back")
  | Ast.Rollback (Some name) -> (
    match List.assoc_opt name t.savepoints with
    | None -> Failed ("unknown savepoint " ^ name)
    | Some snapshot ->
      Catalog.restore t.catalog ~from:snapshot;
      let rec keep = function
        | [] -> []
        | (n, _) :: _ as all when String.equal n name -> all
        | _ :: rest -> keep rest
      in
      t.savepoints <- keep t.savepoints;
      Done ("rolled back to " ^ name))
  | Ast.Savepoint name ->
    t.savepoints <- (name, Catalog.snapshot t.catalog) :: t.savepoints;
    Done ("savepoint " ^ name)
  | Ast.Release_savepoint name ->
    if List.mem_assoc name t.savepoints then begin
      t.savepoints <- List.remove_assoc name t.savepoints;
      Done ("savepoint " ^ name ^ " released")
    end
    else Failed ("unknown savepoint " ^ name)
  | Ast.Set_transaction _ -> Done "ok"

let step t (stmt : Ast.statement) =
  let authorized =
    match t.user with
    | None -> Ok ()
    | Some user -> Engine.Privileges.check t.catalog ~user stmt
  in
  match authorized, stmt with
  | Error msg, _ -> Failed msg
  | Ok (), Ast.Session_stmt (Ast.Set_session_authorization user) ->
    t.user <- Some user;
    Done "session user set"
  | Ok (), Ast.Session_stmt Ast.Reset_session_authorization ->
    t.user <- None;
    Done "session user reset"
  | Ok (), Ast.Transaction_stmt ts -> transaction t ts
  | Ok (), _ -> (
    try observe (t.execute t.catalog stmt) with
    | Executor.Error msg | Value.Type_error msg -> Failed msg
    | Value.Division_by_zero -> Failed "division by zero"
    | Stack_overflow -> Failed "stack overflow"
    | e -> Failed ("exception " ^ Printexc.to_string e))

(* The compiled executor names the join strategy it picked. *)
let as_nested_loop = function
  | Rows (cols, rows) ->
    let line = function
      | [ Value.Str s ] ->
        let body = String.trim s in
        if String.length body > 5 && String.sub body 0 5 = "hash " then
          let indent = String.length s - String.length body in
          [ Value.Str (String.make indent ' ' ^ "nested-loop " ^ String.sub body 5 (String.length body - 5)) ]
        else [ Value.Str s ]
      | row -> row
    in
    Rows (cols, List.map line rows)
  | other -> other

(* Tables with their columns and rows, sequences, views and grants. *)
let state t =
  let relations =
    List.map
      (fun name ->
        match Catalog.find t.catalog name with
        | Some (Catalog.Base_table table) ->
          ( name,
            Some
              ( Engine.Schema.column_names table.Engine.Table.schema,
                Engine.Vec.to_list table.Engine.Table.rows ) )
        | _ -> (name, None))
      (Catalog.relation_names t.catalog)
  in
  let sequences =
    List.map
      (fun (name, (s : Catalog.sequence)) -> (name, s.Catalog.next, s.Catalog.increment))
      (Catalog.sequences t.catalog)
  in
  (relations, sequences, Catalog.grants t.catalog, t.user, t.transaction <> None)

let show_observed = function
  | Rows (cols, rows) ->
    Printf.sprintf "rows [%s] %s" (String.concat "," cols)
      (String.concat " / "
         (List.map (fun r -> String.concat "," (List.map Value.to_string r)) rows))
  | Affected n -> Printf.sprintf "affected %d" n
  | Done m -> "done " ^ m
  | Failed m -> "failed " ^ m

(* Run one statement on both sides: the interpreter's outcome, and a
   description of the difference when the sides disagree. *)
let compare_step (o, p) stmt =
  let expect = step o stmt in
  let got = step p stmt in
  let got = match stmt with Ast.Explain_stmt _ -> as_nested_loop got | _ -> got in
  let diff =
    if compare expect got <> 0 then
      Some
        (Printf.sprintf "%s\n  interpreter: %s\n  compiled:    %s"
           (Sql_printer.statement stmt) (show_observed expect) (show_observed got))
    else if compare (state o) (state p) <> 0 then
      Some
        (Printf.sprintf "%s\n  states differ after the statement"
           (Sql_printer.statement stmt))
    else None
  in
  (expect, diff)

let check_agreement what stmts =
  let pair = (oracle (), production ()) in
  match List.filter_map (fun s -> snd (compare_step pair s)) stmts with
  | [] -> ()
  | first :: _ as all ->
    Alcotest.failf "%s: %d statement(s) disagree; first:\n%s" what (List.length all) first

(* --- Parsing ---------------------------------------------------------------- *)

let full =
  lazy
    (match Core.generate_dialect Dialects.Dialect.full with
     | Ok g -> g
     | Error e -> Alcotest.failf "generate: %a" Core.pp_error e)

let parse sql =
  match Core.parse_statement (Lazy.force full) sql with
  | Ok stmt -> Some stmt
  | Error _ -> None

let parse_all sqls = List.filter_map parse sqls

(* --- Every Test_executor case ------------------------------------------------- *)

let replay actions =
  List.filter_map
    (fun action ->
      match action with
      | Test_executor.Sql sql -> parse sql
      | Test_executor.Prepared (sql, values) -> (
        match parse sql with
        | None -> None
        | Some stmt -> Result.to_option (Engine.Params.bind stmt values))
      | Test_executor.Set_user u ->
        (* The harness switches users through the session statements. *)
        Some
          (Ast.Session_stmt
             (match u with
              | Some name -> Ast.Set_session_authorization name
              | None -> Ast.Reset_session_authorization)))
    actions

let test_executor_cases () =
  List.iter
    (fun (name, case) ->
      let log = ref [] in
      Test_executor.recording := Some log;
      Fun.protect
        ~finally:(fun () -> Test_executor.recording := None)
        (fun () -> case ());
      let stmts = replay (List.rev !log) in
      Alcotest.(check bool) (name ^ " runs statements") true (stmts <> []);
      check_agreement name stmts)
    Test_executor.cases

(* --- Ast_gen statements over a schema of Ast_gen's identifiers ------------------ *)

(* Every table carries all of [Ast_gen]'s column names, with mixed types
   and a NULL or two, so that generated references resolve often and
   comparisons across types fail now and then. *)
let seed_schema =
  List.concat_map
    (fun (table, k) ->
      [
        Printf.sprintf
          "CREATE TABLE %s (a INTEGER, b VARCHAR(10), c INTEGER, x1 DECIMAL(6, 2), \
           col_a VARCHAR(10), col_b INTEGER, amount INTEGER, label VARCHAR(10))"
          table;
        Printf.sprintf
          "INSERT INTO %s (a, b, c, x1, col_a, col_b, amount, label) VALUES (%d, 'a', \
           10, 1.5, 'z', 1, 100, 'x'), (%d, '%%', NULL, 2, 'a', 2, 50, NULL), (NULL, \
           'a', %d, NULL, '_', %d, 100, 'y')"
          table k (k + 1) (k * 10) k;
      ])
    [ ("t", 1); ("u", 2); ("v", 1); ("items", 3); ("sales", 2); ("t_2", 1) ]
  @ [ "CREATE SEQUENCE seq1"; "CREATE SEQUENCE seq2 START WITH 100 INCREMENT BY 3" ]

(* [Ast_gen] gives most correlations a column list of one or two names,
   which no seeded table matches, and qualifies most columns with a table
   that is often not in scope. The printed statement without column lists
   and qualifiers, parsed back, resolves far more often. *)
let unqualified stmt =
  let sql = Sql_printer.statement stmt in
  let b = Buffer.create (String.length sql) in
  let n = String.length sql in
  let ident c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_' in
  let rec go i =
    if i < n then
      let at prefix =
        i + String.length prefix <= n && String.sub sql i (String.length prefix) = prefix
      in
      let qualifier =
        if i > 0 && ident sql.[i - 1] then None
        else
          List.find_opt
            (fun t -> at (t ^ ".") && i + String.length t + 1 < n && sql.[i + String.length t + 1] <> '*')
            [ "t_2"; "items"; "sales"; "t"; "u"; "v"; "d1"; "d2" ]
      in
      match qualifier with
      | Some t -> go (i + String.length t + 1)
      | None ->
        if at " AS d1 (" || at " AS d2 (" then begin
          Buffer.add_string b (String.sub sql i 6);
          go (String.index_from sql i ')' + 1)
        end
        else begin
          Buffer.add_char b sql.[i];
          go (i + 1)
        end
  in
  go 0;
  Option.value ~default:stmt (parse (Buffer.contents b))

(* Mostly small queries, two in three of them unqualified, and statements of any kind except session switches, which would
   lock the rest of a batch out. *)
let generated_statements ~seed ~n =
  let open QCheck.Gen in
  let query =
    map (fun q -> Ast.Query_stmt q) (oneof [ Test_gen.Ast_gen.gen_query 2; Test_gen.Ast_gen.gen_query 4 ])
  in
  let gen =
    frequency
      [
        (2, map unqualified query);
        (1, query);
        (2, Test_gen.Ast_gen.gen_statement 6);
      ]
  in
  List.filter
    (function Ast.Session_stmt _ -> false | _ -> true)
    (generate ~rand:(Random.State.make [| seed |]) ~n gen)

let rec chunks k = function
  | [] -> []
  | l ->
    let chunk = List.filteri (fun i _ -> i < k) l in
    chunk :: chunks k (List.filteri (fun i _ -> i >= k) l)

let test_generated () =
  let setup = parse_all seed_schema in
  Alcotest.(check int) "seed schema parses" (List.length seed_schema) (List.length setup);
  let succeeded = ref 0 and failed = ref 0 in
  (* Fresh databases every 12 statements, so that drops and open
     transactions do not empty the rest of the batch. *)
  List.iteri
    (fun i batch ->
      let pair = (oracle (), production ()) in
      List.iter (fun s -> ignore (compare_step pair s)) setup;
      List.iter
        (fun stmt ->
          match compare_step pair stmt with
          | _, Some diff -> Alcotest.failf "generated batch %d disagrees:\n%s" i diff
          | Failed _, None -> incr failed
          | _, None -> incr succeeded)
        batch)
    (chunks 12 (generated_statements ~seed:2026 ~n:1200));
  Alcotest.(check bool)
    (Printf.sprintf "%d succeed and %d fail: both at least 200" !succeeded !failed)
    true
    (!succeeded >= 200 && !failed >= 200)

(* --- Well-typed queries over the same schema ------------------------------------ *)

(* Random [Ast_gen] queries almost always compare a column with a literal
   of another type somewhere, so they rarely return rows. These are typed:
   integer expressions meet integers and strings meet strings, so most of
   them run to completion through joins, grouping, subqueries, set
   operations and WITH. *)
module Typed = struct
  open QCheck.Gen

  let tables = [ "t"; "u"; "v"; "items"; "sales"; "t_2" ]
  let int_cols = [ "a"; "c"; "col_b"; "amount" ]
  let str_cols = [ "b"; "col_a"; "label" ]

  let col qualifiers cols =
    map2
      (fun q c -> match q with Some q -> q ^ "." ^ c | None -> c)
      (oneofl (None :: List.map Option.some qualifiers))
      (oneofl cols)

  let rec int_expr qs depth =
    let leaf = oneof [ col qs int_cols; map string_of_int (int_range (-1) 12) ] in
    if depth <= 0 then leaf
    else
      frequency
        [
          (4, leaf);
          (1, map2 (Printf.sprintf "%s + %s") (int_expr qs (depth - 1)) (int_expr qs (depth - 1)));
          (1, map (Printf.sprintf "ABS(%s)") (int_expr qs (depth - 1)));
          ( 1,
            map2
              (fun t c -> Printf.sprintf "(SELECT MAX(z.a) FROM %s AS z WHERE z.c = %s)" t c)
              (oneofl tables) (col qs int_cols) );
        ]

  let str_lit = oneofl [ "'a'"; "'z'"; "'x'"; "'%'"; "'_'" ]

  let rec cond qs depth =
    let atom =
      oneof
        [
          map3 (Printf.sprintf "%s %s %s") (int_expr qs 1)
            (oneofl [ "="; "<>"; "<"; ">"; "<="; ">=" ])
            (int_expr qs 1);
          map2 (Printf.sprintf "%s = %s") (col qs str_cols) str_lit;
          map2 (Printf.sprintf "%s LIKE %s") (col qs str_cols)
            (oneofl [ "'a%'"; "'%'"; "'_'"; "'%a%'"; "'!%' ESCAPE '!'" ]);
          map (Printf.sprintf "%s IS NULL") (col qs (int_cols @ str_cols));
          map (Printf.sprintf "%s IS NOT NULL") (col qs int_cols);
          map (Printf.sprintf "%s IN (1, 2, 10)") (col qs int_cols);
          map3 (Printf.sprintf "%s BETWEEN %s AND %s") (col qs int_cols)
            (int_expr qs 0) (int_expr qs 0);
          map3
            (fun c t w -> Printf.sprintf "%s IN (SELECT y.a FROM %s AS y WHERE %s)" c t w)
            (col qs int_cols) (oneofl tables)
            (oneofl [ "y.c > 5"; "y.b = 'a'"; "y.a IS NOT NULL" ]);
          map2
            (fun t c -> Printf.sprintf "EXISTS (SELECT 1 FROM %s AS y WHERE y.a = %s)" t c)
            (oneofl tables) (col qs int_cols);
        ]
    in
    if depth <= 0 then atom
    else
      frequency
        [
          (3, atom);
          (1, map2 (Printf.sprintf "(%s AND %s)") (cond qs (depth - 1)) (cond qs (depth - 1)));
          (1, map2 (Printf.sprintf "(%s OR %s)") (cond qs (depth - 1)) (cond qs (depth - 1)));
          (1, map (Printf.sprintf "NOT (%s)") (cond qs (depth - 1)));
        ]

  (* A FROM clause and the qualifiers it brings into scope. *)
  let from =
    oneof
      [
        map (fun t -> (t ^ " AS p", [ "p" ])) (oneofl tables);
        map3
          (fun l r (kind, on) -> (Printf.sprintf "%s AS p %s JOIN %s AS q %s" l kind r on, [ "p"; "q" ]))
          (oneofl tables) (oneofl tables)
          (pair
             (oneofl [ "INNER"; "LEFT OUTER"; "RIGHT OUTER"; "FULL OUTER" ])
             (oneofl
                [
                  "ON p.a = q.a"; "ON p.a = q.c"; "ON q.col_b = p.a AND p.b = q.b";
                  "ON p.a < q.c"; "ON p.amount = q.amount"; "USING (a)"; "USING (b, a)";
                ]));
        map2 (fun l r -> (Printf.sprintf "%s AS p NATURAL JOIN %s AS q" l r, [ "p"; "q" ]))
          (oneofl tables) (oneofl tables);
        map2 (fun l r -> (Printf.sprintf "%s AS p, %s AS q" l r, [ "p"; "q" ]))
          (oneofl tables) (oneofl tables);
        map (fun t ->
            ( Printf.sprintf "(SELECT a, b, c, amount FROM %s WHERE a IS NOT NULL) AS p" t,
              [ "p" ] ))
          (oneofl tables);
      ]

  let select =
    from >>= fun (from, qs) ->
    let where = opt (cond qs 2) in
    let plain =
      map3
        (fun distinct items order ->
          ( Printf.sprintf "SELECT %s%s FROM %s" distinct (String.concat ", " items) from,
            order ))
        (oneofl [ ""; "DISTINCT " ])
        (frequency
           [
             (1, return [ "*" ]);
             ( 4,
               list_size (int_range 1 3)
                 (oneof
                    [
                      col qs (int_cols @ str_cols);
                      int_expr qs 1;
                      map (fun q -> q ^ ".*") (oneofl qs);
                    ]) );
           ])
        (opt (map (Printf.sprintf " ORDER BY %s DESC") (col qs int_cols)))
    in
    let grouped =
      map3
        (fun key aggs having ->
          ( Printf.sprintf "SELECT %s, %s FROM %s" key (String.concat ", " aggs) from,
            Some
              (Printf.sprintf " GROUP BY %s%s ORDER BY %s" key
                 (match having with Some h -> " HAVING " ^ h | None -> "")
                 key) ))
        (col qs (int_cols @ str_cols))
        (list_size (int_range 1 3)
           (oneofl
              [
                "COUNT(*)"; "SUM(amount)"; "COUNT(DISTINCT c)"; "MIN(b)"; "MAX(x1)";
                "AVG(col_b)"; "SUM(DISTINCT a)"; "COUNT(label)";
              ]))
        (opt (oneofl [ "COUNT(*) > 1"; "SUM(amount) >= 100"; "MIN(a) IS NOT NULL" ]))
    in
    map2
      (fun (select, tail) where ->
        let where = match where with Some w -> " WHERE " ^ w | None -> "" in
        (* GROUP BY follows WHERE; ORDER BY comes last. *)
        select ^ where ^ Option.value ~default:"" tail)
      (frequency [ (2, plain); (1, grouped) ])
      where

  let query =
    frequency
      [
        (6, select);
        ( 1,
          map3
            (fun l op r -> Printf.sprintf "SELECT a FROM %s %s SELECT c FROM %s" l op r)
            (oneofl tables)
            (oneofl [ "UNION"; "UNION ALL"; "INTERSECT"; "EXCEPT"; "EXCEPT ALL" ])
            (oneofl tables) );
        ( 1,
          map2
            (fun t n ->
              Printf.sprintf
                "WITH w (k, n) AS (SELECT a, COUNT(*) FROM %s GROUP BY a) SELECT k, n FROM \
                 w WHERE n >= %d ORDER BY k FETCH FIRST 3 ROWS ONLY"
                t n)
            (oneofl tables) (int_range 0 2) );
      ]
end

let test_typed_queries () =
  let setup = parse_all seed_schema in
  let sqls = QCheck.Gen.generate ~rand:(Random.State.make [| 26 |]) ~n:600 Typed.query in
  let stmts = parse_all sqls in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d typed queries parse" (List.length stmts) (List.length sqls))
    true
    (List.length stmts = List.length sqls);
  let pair = (oracle (), production ()) in
  List.iter (fun s -> ignore (compare_step pair s)) setup;
  let rows = ref 0 in
  List.iter
    (fun stmt ->
      match compare_step pair stmt with
      | _, Some diff -> Alcotest.failf "typed query disagrees:\n%s" diff
      | Rows (_, _ :: _), None -> incr rows
      | _, None -> ())
    stmts;
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d return rows (at least half)" !rows (List.length stmts))
    true
    (2 * !rows >= List.length stmts)

(* --- Scripts shaped like the ledger's workloads ------------------------------------ *)

let between rng lo hi = lo + Random.State.int rng (hi - lo + 1)

let crud_script rng =
  let out = ref [] in
  let emit fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  emit
    "CREATE TABLE items ( id INTEGER PRIMARY KEY , name VARCHAR ( 20 ) NOT NULL , \
     price DECIMAL ( 8 , 2 ) DEFAULT 0 , stocked BOOLEAN )";
  let live = Queue.create () and next = ref 1 in
  let insert () =
    let k = !next in
    next := !next + between rng 1 9;
    Queue.push k live;
    emit "INSERT INTO items ( id , name , price , stocked ) VALUES ( %d , 'n%d' , %d.%02d , %s )"
      k k (between rng 0 999) (between rng 0 99)
      (if Random.State.bool rng then "TRUE" else "FALSE")
  in
  for _ = 1 to 12 do insert () done;
  let pick () =
    let keys = Array.of_seq (Queue.to_seq live) in
    keys.(Random.State.int rng (Array.length keys))
  in
  for i = 0 to 119 do
    match i mod 5 with
    | 0 -> insert ()
    | 1 -> emit "SELECT name , price FROM items WHERE id = %d" (pick ())
    | 2 -> emit "UPDATE items SET price = price + %d WHERE id = %d" (between rng 1 9) (pick ())
    | 3 ->
      emit
        "SELECT id , name AS label FROM items WHERE price <= %d AND stocked = TRUE \
         ORDER BY price DESC LIMIT %d"
        (between rng 100 900) (between rng 1 10)
    | _ -> emit "DELETE FROM items WHERE id = %d" (Queue.pop live)
  done;
  List.rev !out

let analytics_script rng =
  let out = ref [] in
  let emit fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let regions = 8 in
  emit "CREATE TABLE regions ( id INTEGER , region VARCHAR ( 20 ) )";
  emit "CREATE TABLE sales ( id INTEGER , region_id INTEGER , yr INTEGER , amount INTEGER )";
  emit "INSERT INTO regions ( id , region ) VALUES %s"
    (String.concat " , " (List.init regions (fun i -> Printf.sprintf "( %d , 'r%d' )" (i + 1) i)));
  emit "INSERT INTO sales ( id , region_id , yr , amount ) VALUES %s"
    (String.concat " , "
       (List.init 120 (fun i ->
            Printf.sprintf "( %d , %d , %d , %d )" (i + 1) (between rng 1 regions)
              (between rng 2000 2009) (between rng 1 500))));
  for i = 0 to 63 do
    let y = between rng 2000 2009 and a = between rng 50 450 and r = between rng 1 regions in
    match i mod 8 with
    | 0 ->
      emit
        "SELECT r.region , SUM ( s.amount ) AS total FROM sales AS s INNER JOIN regions \
         AS r ON s.region_id = r.id WHERE s.yr = %d GROUP BY r.region HAVING SUM ( \
         s.amount ) > %d ORDER BY total DESC FETCH FIRST 5 ROWS ONLY"
        y a
    | 1 -> emit "SELECT COUNT ( * ) FROM sales WHERE yr = %d AND amount > %d" y a
    | 2 ->
      emit
        "SELECT id , CASE WHEN amount > %d THEN 'big' ELSE 'small' END , CAST ( amount \
         AS INTEGER ) FROM sales WHERE region_id = %d"
        a r
    | 3 ->
      emit
        "SELECT id , amount FROM sales WHERE region_id IN ( SELECT id FROM regions \
         WHERE region = 'r%d' )"
        (r - 1)
    | 4 ->
      emit
        "SELECT region_id FROM sales WHERE yr = %d UNION ALL SELECT id FROM regions \
         WHERE id > %d"
        y r
    | 5 ->
      emit
        "SELECT d.a FROM ( SELECT amount AS a FROM sales WHERE yr = %d ) AS d WHERE \
         d.a > %d"
        y a
    | 6 ->
      emit
        "WITH top ( region_id , total ) AS ( SELECT region_id , SUM ( amount ) FROM \
         sales GROUP BY region_id ) SELECT region_id FROM top WHERE total > %d"
        (a * 10)
    | _ ->
      emit
        "SELECT UPPER ( r.region ) , COUNT ( DISTINCT s.yr ) FROM regions AS r LEFT \
         OUTER JOIN sales AS s ON s.region_id = r.id WHERE r.id > %d OR r.id <= %d \
         GROUP BY r.region"
        r r
  done;
  List.rev !out

let bulk_script rng =
  let out = ref [] in
  let emit fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  emit
    "CREATE TABLE readings ( nodeid INTEGER , temp DECIMAL ( 6 , 2 ) , light INTEGER , \
     note VARCHAR ( 60 ) )";
  for b = 0 to 11 do
    emit "INSERT INTO readings ( nodeid , temp , light , note ) VALUES %s"
      (String.concat " , "
         (List.init 48 (fun i ->
              let t = between rng 0 999 in
              Printf.sprintf "( %d , %d.%02d , %d , 'w%d;%d' )" (between rng 0 63) (t / 10)
                (t mod 100) (between rng 0 1023) b i)));
    if b mod 3 = 2 then
      emit "SELECT COUNT ( * ) FROM readings WHERE light > %d" (between rng 0 1023);
    if b mod 8 = 7 then emit "DELETE FROM readings WHERE nodeid >= 0"
  done;
  List.rev !out

let errors_script rng =
  let out = ref [] in
  let emit fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  emit "CREATE TABLE accounts ( id INTEGER , owner VARCHAR ( 20 ) , balance INTEGER )";
  for k = 1 to 24 do
    emit "INSERT INTO accounts ( id , owner , balance ) VALUES ( %d , 'o%d' , %d )" k k
      (between rng 0 999)
  done;
  for i = 0 to 95 do
    let k = between rng 1 24 in
    match i mod 6 with
    | 0 -> emit "INSERT INTO accounts ( id , owner , balance ) VALUES ( %d , 'p%d' , %d )" (100 + i) i (between rng 0 999)
    | 1 ->
      emit "SELECT owner , balance FROM accounts WHERE id = %d AND balance >= %d" k
        (between rng 0 999)
    | 2 -> emit "UPDATE accounts SET balance = balance + %d WHERE id = %d" (between rng 1 50) k
    | 3 ->
      emit
        "SELECT owner FROM accounts WHERE id IN ( SELECT id FROM accounts WHERE \
         balance > %d ) ORDER BY owner"
        (between rng 0 999)
    | 4 -> emit "SELECT COUNT ( * ) FROM accounts WHERE balance > %d" (between rng 0 999)
    | _ -> emit "DELETE FROM accounts WHERE id = %d" k
  done;
  List.rev !out

let test_ledger_shapes () =
  List.iter
    (fun (name, script) ->
      let sqls = script (Random.State.make [| 7; Hashtbl.hash name |]) in
      let stmts = parse_all sqls in
      Alcotest.(check int) (name ^ " script parses") (List.length sqls) (List.length stmts);
      check_agreement name stmts)
    [
      ("crud", crud_script);
      ("analytics", analytics_script);
      ("bulk", bulk_script);
      ("errors", errors_script);
    ]

(* --- Behaviours the compiled executor must keep ---------------------------------- *)

let pinned =
  [
    (* Unknown columns fail when evaluated, not when compiled. *)
    "CREATE TABLE empty_t (a INTEGER)";
    "SELECT nope FROM empty_t";
    "SELECT a FROM empty_t WHERE nope = 1 AND other = 2";
    "CREATE TABLE p (k INTEGER, v VARCHAR(5))";
    "CREATE TABLE q (k INTEGER, w VARCHAR(5), v VARCHAR(5))";
    "INSERT INTO p (k, v) VALUES (1, 'a'), (2, 'b'), (2, 'c'), (NULL, 'n')";
    "INSERT INTO q (k, w, v) VALUES (2, 'x', 'qv'), (3, 'y', 'qw'), (2, 'z', 'qz')";
    "SELECT nope FROM p";
    (* Operands are evaluated in the interpreter's order. *)
    "SELECT k FROM p WHERE nope1 = 1 AND nope2 = 2";
    "SELECT k FROM p WHERE nope1 = nope2";
    "SELECT SUBSTRING(nope1 FROM nope2) FROM p";
    (* First match, then outer scopes; result columns shadow sources in ORDER BY. *)
    "SELECT v FROM p, q";
    "SELECT k FROM p WHERE EXISTS (SELECT w FROM q WHERE q.k = p.k AND v = 'qv')";
    "SELECT v AS k, k AS v FROM p ORDER BY k, v";
    "SELECT v FROM p ORDER BY k DESC";
    "SELECT k, COUNT(*) FROM p GROUP BY k ORDER BY COUNT(*) DESC, k";
    (* Join output: inner pairs, then left padding, then right padding. *)
    "SELECT p.v, q.w FROM p FULL OUTER JOIN q ON p.k = q.k";
    "SELECT p.v, q.w FROM p RIGHT OUTER JOIN q ON p.k = q.k";
    "SELECT p.v, q.w FROM p LEFT OUTER JOIN q ON q.k = p.k AND p.v = q.v";
    "SELECT p.v, q.w FROM p FULL OUTER JOIN q ON p.k < q.k";
    "SELECT * FROM p NATURAL JOIN q";
    "SELECT * FROM p INNER JOIN q USING (k)";
    "SELECT * FROM p INNER JOIN q USING (k, nope)";
    "SELECT * FROM p INNER JOIN q USING (v)";
    (* A hash join over keys of incompatible kinds fails as the loop does. *)
    "SELECT p.v FROM p INNER JOIN q ON p.k = q.w";
    "SELECT p.v FROM p INNER JOIN q ON p.v = q.k";
    "SELECT p.v FROM p INNER JOIN empty_t ON p.v = empty_t.a";
    (* Groups come out in first-seen order; NaN never equals itself. *)
    "CREATE TABLE f (x DOUBLE PRECISION, g INTEGER)";
    "INSERT INTO f (x, g) VALUES (CAST('nan' AS DOUBLE PRECISION), 1), (1, 2), (1.0, 3), \
     (CAST('nan' AS DOUBLE PRECISION), 4), (NULL, 5), (NULL, 6), (2, 7)";
    "SELECT x, COUNT(*) FROM f GROUP BY x";
    "SELECT DISTINCT x FROM f";
    "SELECT COUNT(DISTINCT x), SUM(DISTINCT x) FROM f";
    "SELECT x FROM f UNION SELECT x FROM f";
    "SELECT a.g, b.g FROM f AS a INNER JOIN f AS b ON a.x = b.x";
    "SELECT a.g, b.g FROM f AS a INNER JOIN f AS b USING (x)";
    "SELECT g FROM f WHERE x IN (SELECT x FROM f WHERE g = 1)";
    (* NEXT VALUE FOR runs once per evaluated row; such subqueries are not kept. *)
    "CREATE SEQUENCE s";
    "SELECT NEXT VALUE FOR s FROM p";
    "SELECT k FROM p WHERE k < (SELECT NEXT VALUE FOR s FROM q WHERE w = 'x')";
    "SELECT k, (SELECT COUNT(*) FROM q WHERE NEXT VALUE FOR s > 0) FROM p";
    "SELECT p.k FROM p LEFT OUTER JOIN q ON p.k = q.k AND NEXT VALUE FOR s > 0";
    "SELECT NEXT VALUE FOR s FROM p ORDER BY NEXT VALUE FOR s";
    (* Uncorrelated subqueries over a table the statement writes see its rows as they change. *)
    "CREATE TABLE n (a INTEGER)";
    "INSERT INTO n (a) VALUES (1), (2), (3), (4)";
    "UPDATE n SET a = a + (SELECT MAX(a) FROM n)";
    "SELECT a FROM n";
    "DELETE FROM n WHERE a > (SELECT COUNT(*) FROM n)";
    "SELECT a FROM n";
    "INSERT INTO n (a) SELECT a + 100 FROM n WHERE a IN (SELECT a FROM n)";
    "MERGE INTO n USING p ON n.a = p.k WHEN MATCHED THEN UPDATE SET a = (SELECT MAX(a) \
     FROM n) WHEN NOT MATCHED THEN INSERT (a) VALUES ((SELECT COUNT(*) FROM n))";
    "SELECT a FROM n";
    (* Errors inside aggregates and grouping, and their order. *)
    "SELECT SUM(v) FROM p";
    "SELECT k FROM p GROUP BY k HAVING SUM(v) > 1";
    "CREATE TABLE bo (b BOOLEAN, k INTEGER)";
    "INSERT INTO bo (b, k) VALUES (TRUE, 1), (FALSE, 2), (NULL, 3), (TRUE, 4)";
    "SELECT EVERY(b), ANY(b), EVERY(DISTINCT b) FROM bo";
    "SELECT EVERY(k) FROM bo";
    "SELECT k, EVERY(b), ANY(b) FROM bo GROUP BY k";
    "SELECT k FROM p GROUP BY ROLLUP (k)";
    "SELECT p.* , nope.* FROM p";
    (* WITH, recursion, set operations and VALUES. *)
    "WITH c (x) AS (SELECT k FROM p), c (x) AS (SELECT w FROM q) SELECT x FROM c";
    "WITH RECURSIVE r (x) AS (SELECT 1 FROM p WHERE k = 1 UNION SELECT x + 1 FROM r \
     WHERE x < 5) SELECT x FROM r";
    "WITH RECURSIVE r AS (SELECT k FROM p WHERE k = 1 UNION SELECT k + 1 FROM r WHERE k \
     < 3) SELECT k FROM r";
    "SELECT k FROM p INTERSECT SELECT k FROM q";
    "SELECT k FROM p EXCEPT ALL SELECT k FROM q";
    "SELECT v, k FROM p UNION CORRESPONDING SELECT k, w FROM q";
    "SELECT * FROM (VALUES (1, 'a'), (2, 'b')) AS d (i, s) WHERE i > 1";
    "SELECT k FROM p WHERE k = ALL (SELECT k FROM q WHERE w = 'x')";
    "SELECT k FROM p WHERE k > SOME (SELECT k, w FROM q)";
    "SELECT k FROM p WHERE UNIQUE (SELECT k FROM q)";
    "SELECT (SELECT k FROM q) FROM p";
    "CREATE VIEW pv (kk, vv) AS SELECT k, v FROM p WHERE k IS NOT NULL";
    "SELECT x.kk FROM pv AS x (a, b)";
    "SELECT * FROM p AS x (one)";
    "EXPLAIN SELECT p.v FROM p INNER JOIN q ON p.k = q.k";
  ]

let test_pinned () =
  let stmts = parse_all pinned in
  Alcotest.(check int) "pinned statements parse" (List.length pinned) (List.length stmts);
  check_agreement "pinned" stmts;
  (* A few outcomes spelled out. *)
  let p = production () in
  let by_sql sql = match parse sql with Some s -> step p s | None -> Failed "parse" in
  List.iter (fun sql -> ignore (by_sql sql)) (List.filteri (fun i _ -> i < 7) pinned);
  Alcotest.(check bool) "unknown column over no rows" true
    (by_sql "SELECT nope FROM empty_t" = Rows ([ "nope" ], []));
  Alcotest.(check bool) "the right operand of AND is evaluated first" true
    (by_sql "SELECT k FROM p WHERE nope1 = 1 AND nope2 = 2" = Failed "unknown column nope2");
  Alcotest.(check bool) "incompatible hash-join keys" true
    (by_sql "SELECT p.v FROM p INNER JOIN q ON p.k = q.w"
     = Failed "comparison between incompatible types")

let suite =
  [
    Alcotest.test_case "every executor case agrees with the interpreter" `Quick
      test_executor_cases;
    Alcotest.test_case "pinned behaviours agree with the interpreter" `Quick test_pinned;
    Alcotest.test_case "ledger-shaped scripts agree with the interpreter" `Quick
      test_ledger_shapes;
    Alcotest.test_case "generated statements agree with the interpreter" `Quick
      test_generated;
    Alcotest.test_case "typed generated queries agree with the interpreter" `Quick
      test_typed_queries;
  ]

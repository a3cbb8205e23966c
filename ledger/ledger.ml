(* The layer ledger: one end-to-end benchmark of the SQL parser product
   line, with a traced run that attributes time and allocation to layers.

   A workload is a SQL script generated from [--seed] for one shipped
   dialect. A pass runs the script down the two paths a user takes:

   - the library path: {!Core.split_statements}, then {!Core.run} (scan,
     parse, lower, execute) on every statement against a fresh database;
   - the daemon path: the same statements in batches of [batch], CST mode,
     over loopback TCP to a {!Service.Server} daemon running in a forked
     process of its own with one worker (one connection per core).

   Passes repeat until [--seconds] are spent. Every outcome is checked:
   affected-row counts and result sizes against a model kept by the
   generator, injected syntax errors at their exact byte offset, and every
   daemon reply byte for byte against the library's own rendering.

   [--trace 0] reports the end-to-end metrics. [--trace 1] calls each layer
   separately (the same calls {!Core.run} makes, in the same order),
   records a span around each call, writes the spans of the first pass to
   [.ledger_out/], and reports per-layer times, allocation and counts.

   Usage, from the repository root:
   {v dune exec ./ledger/ledger.exe -- --workload crud --seed 1 --seconds 10 --trace 0 v}
   The last line of standard output is one JSON object. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---------- Workloads ---------- *)

type expect =
  | Affected of int
  | Rows of int option  (** a result set, with its row count when known *)
  | Count of int  (** a one-row, one-column COUNT result *)
  | Done  (** a DDL acknowledgement *)
  | Reject_at of int  (** a parse error at this byte offset *)

type stmt = { sql : string; expect : expect }

type workload = {
  name : string;
  dialect : Dialects.Dialect.t;
  script : stmt array;  (** one pass, schema first *)
}

(* Statements are written with single spaces between tokens, so splitting on
   spaces gives back the token boundaries. *)
let stmt expect fmt = Printf.ksprintf (fun sql -> { sql; expect }) fmt

(* A stray ")" at a token boundary where no parenthesis is open. The text
   before it is a prefix of a valid statement and no rule consumes an
   unopened parenthesis, so the furthest parse failure is exactly the
   inserted token. *)
let corrupt rng s =
  let toks = Array.of_list (String.split_on_char ' ' s.sql) in
  let spots = ref [] and depth = ref 0 and off = ref 0 in
  Array.iteri
    (fun i t ->
      if t = "(" then incr depth else if t = ")" then decr depth;
      off := !off + String.length t + 1;
      if !depth = 0 then spots := (i + 1, !off) :: !spots)
    toks;
  let spots = Array.of_list !spots in
  let j, at = spots.(Random.State.int rng (Array.length spots)) in
  let n = Array.length toks in
  let before = Array.to_list (Array.sub toks 0 j)
  and after = Array.to_list (Array.sub toks j (n - j)) in
  {
    sql = String.concat " " (before @ (")" :: after));
    expect = Reject_at at;
  }

let between rng lo hi = lo + Random.State.int rng (hi - lo + 1)

let pick rng queue =
  let keys = Array.of_seq (Queue.to_seq queue) in
  keys.(Random.State.int rng (Array.length keys))

let word rng =
  let syllables = [| "ka"; "lo"; "mi"; "ne"; "ru"; "ta"; "vo"; "zi" |] in
  String.concat ""
    (List.init (between rng 2 4) (fun _ ->
         syllables.(Random.State.int rng (Array.length syllables))))

(* Short point statements on a keyed table. The embedded grammar commits at
   every choice point, so this path never enters the memoized fallback. *)
let crud rng =
  let out = ref [] in
  let emit s = out := s :: !out in
  emit
    (stmt Done
       "CREATE TABLE items ( id INTEGER PRIMARY KEY , name VARCHAR ( 20 ) NOT \
        NULL , price DECIMAL ( 8 , 2 ) DEFAULT 0 , stocked BOOLEAN )");
  let live = Queue.create () and next = ref 1 in
  let insert () =
    let k = !next in
    next := !next + between rng 1 9;
    Queue.push k live;
    emit
      (stmt (Affected 1)
         "INSERT INTO items ( id , name , price , stocked ) VALUES ( %d , '%s' \
          , %d.%02d , %s )"
         k (word rng) (between rng 0 999) (between rng 0 99)
         (if Random.State.bool rng then "TRUE" else "FALSE"))
  in
  for _ = 1 to 24 do
    insert ()
  done;
  for i = 0 to 1919 do
    match i mod 5 with
    | 0 -> insert ()
    | 1 ->
      emit
        (stmt (Rows (Some 1)) "SELECT name , price FROM items WHERE id = %d"
           (pick rng live))
    | 2 ->
      emit
        (stmt (Affected 1) "UPDATE items SET price = price + %d WHERE id = %d"
           (between rng 1 9) (pick rng live))
    | 3 ->
      emit
        (stmt (Rows None)
           "SELECT id , name AS label FROM items WHERE price <= %d AND stocked \
            = TRUE ORDER BY price DESC LIMIT %d"
           (between rng 100 900) (between rng 1 10))
    | _ ->
      emit
        (stmt (Affected 1) "DELETE FROM items WHERE id = %d" (Queue.pop live))
  done;
  List.rev !out

(* Join, grouping, subquery and set-operation queries over a small star
   schema. Most of the analytics grammar runs on the memoized fallback. *)
let analytics rng =
  let out = ref [] in
  let emit s = out := s :: !out in
  let regions = 8 in
  let region_name = Array.init regions (fun i -> Printf.sprintf "%s%d" (word rng) i) in
  emit (stmt Done "CREATE TABLE regions ( id INTEGER , region VARCHAR ( 20 ) )");
  emit
    (stmt Done
       "CREATE TABLE sales ( id INTEGER , region_id INTEGER , yr INTEGER , \
        amount INTEGER )");
  emit
    (stmt (Affected regions) "INSERT INTO regions ( id , region ) VALUES %s"
       (String.concat " , "
          (List.init regions (fun i ->
               Printf.sprintf "( %d , '%s' )" (i + 1) region_name.(i)))));
  let sales =
    Array.init 120 (fun i ->
        (i + 1, between rng 1 regions, between rng 2000 2009, between rng 1 500))
  in
  for b = 0 to 3 do
    let rows = Array.sub sales (b * 30) 30 in
    emit
      (stmt (Affected 30)
         "INSERT INTO sales ( id , region_id , yr , amount ) VALUES %s"
         (String.concat " , "
            (Array.to_list
               (Array.map
                  (fun (id, r, y, a) ->
                    Printf.sprintf "( %d , %d , %d , %d )" id r y a)
                  rows))))
  done;
  let count p = Array.fold_left (fun n s -> if p s then n + 1 else n) 0 sales in
  for i = 0 to 959 do
    let y = between rng 2000 2009
    and a = between rng 50 450
    and r = between rng 1 regions in
    match i mod 8 with
    | 0 ->
      emit
        (stmt (Rows None)
           "SELECT r.region , SUM ( s.amount ) AS total FROM sales AS s INNER \
            JOIN regions AS r ON s.region_id = r.id WHERE s.yr = %d GROUP BY \
            r.region HAVING SUM ( s.amount ) > %d ORDER BY total DESC FETCH \
            FIRST 5 ROWS ONLY"
           y a)
    | 1 ->
      emit
        (stmt
           (Count (count (fun (_, _, y', a') -> y' = y && a' > a)))
           "SELECT COUNT ( * ) FROM sales WHERE yr = %d AND amount > %d" y a)
    | 2 ->
      emit
        (stmt
           (Rows (Some (count (fun (_, r', _, _) -> r' = r))))
           "SELECT id , CASE WHEN amount > %d THEN 'big' ELSE 'small' END , \
            CAST ( amount AS INTEGER ) FROM sales WHERE region_id = %d"
           a r)
    | 3 ->
      emit
        (stmt
           (Rows (Some (count (fun (_, r', _, _) -> r' = r))))
           "SELECT id , amount FROM sales WHERE region_id IN ( SELECT id FROM \
            regions WHERE region = '%s' )"
           region_name.(r - 1))
    | 4 ->
      emit
        (stmt
           (Rows (Some (count (fun (_, _, y', _) -> y' = y) + (regions - r))))
           "SELECT region_id FROM sales WHERE yr = %d UNION ALL SELECT id FROM \
            regions WHERE id > %d"
           y r)
    | 5 ->
      emit
        (stmt
           (Rows (Some (count (fun (_, _, y', a') -> y' = y && a' > a))))
           "SELECT d.a FROM ( SELECT amount AS a FROM sales WHERE yr = %d ) AS \
            d WHERE d.a > %d"
           y a)
    | 6 ->
      emit
        (stmt (Rows None)
           "WITH top ( region_id , total ) AS ( SELECT region_id , SUM ( amount \
            ) FROM sales GROUP BY region_id ) SELECT region_id FROM top WHERE \
            total > %d"
           (a * 10))
    | _ ->
      emit
        (stmt (Rows (Some regions))
           "SELECT UPPER ( r.region ) , COUNT ( DISTINCT s.yr ) FROM regions AS \
            r LEFT OUTER JOIN sales AS s ON s.region_id = r.id WHERE r.id > %d \
            OR r.id <= %d GROUP BY r.region"
           r r)
  done;
  List.rev !out

(* Long multi-row INSERTs with string literals, some holding a ";" the
   statement splitter must respect: time goes to splitting and scanning. *)
let bulk rng =
  let out = ref [] in
  let emit s = out := s :: !out in
  emit
    (stmt Done
       "CREATE TABLE readings ( nodeid INTEGER , temp DECIMAL ( 6 , 2 ) , \
        light INTEGER , note VARCHAR ( 60 ) )");
  let table = ref [] in
  for b = 0 to 191 do
    let rows =
      List.init 48 (fun _ ->
          let note =
            if Random.State.int rng 4 = 0 then word rng ^ ";" ^ word rng
            else word rng
          in
          (between rng 0 63, between rng 0 999, between rng 0 1023, note))
    in
    table := rows @ !table;
    emit
      (stmt (Affected 48)
         "INSERT INTO readings ( nodeid , temp , light , note ) VALUES %s"
         (String.concat " , "
            (List.map
               (fun (n, t, l, note) ->
                 Printf.sprintf "( %d , %d.%02d , %d , '%s' )" n (t / 10)
                   (t mod 100) l note)
               rows)));
    if b mod 3 = 2 then begin
      let l = between rng 0 1023 in
      emit
        (stmt
           (Count (List.length (List.filter (fun (_, _, l', _) -> l' > l) !table)))
           "SELECT COUNT ( * ) FROM readings WHERE light > %d" l)
    end;
    if b mod 8 = 7 then begin
      emit
        (stmt (Affected (List.length !table))
           "DELETE FROM readings WHERE nodeid >= 0");
      table := []
    end
  done;
  List.rev !out

(* Every other statement carries a stray ")": each rejection takes the
   parser's error-reporting rerun on the full grammar. *)
let errors rng =
  let out = ref [] in
  let emit s = out := s :: !out in
  emit
    (stmt Done
       "CREATE TABLE accounts ( id INTEGER , owner VARCHAR ( 20 ) , balance \
        INTEGER )");
  let live = Queue.create () and balance = Hashtbl.create 64 and next = ref 1 in
  let insert ~valid =
    let k = !next and b = between rng 0 999 in
    if valid then begin
      incr next;
      Queue.push k live;
      Hashtbl.replace balance k b
    end;
    stmt (Affected 1)
      "INSERT INTO accounts ( id , owner , balance ) VALUES ( %d , '%s' , %d )"
      k (word rng) b
  in
  for _ = 1 to 24 do
    emit (insert ~valid:true)
  done;
  for i = 0 to 1599 do
    let valid = i mod 2 = 0 in
    let s =
      match i / 2 mod 6 with
      | 0 -> insert ~valid
      | 1 ->
        stmt (Rows None)
          "SELECT owner , balance FROM accounts WHERE id = %d AND balance >= %d"
          (pick rng live) (between rng 0 999)
      | 2 ->
        let k = pick rng live and d = between rng 1 50 in
        if valid then Hashtbl.replace balance k (Hashtbl.find balance k + d);
        stmt (Affected 1)
          "UPDATE accounts SET balance = balance + %d WHERE id = %d" d k
      | 3 ->
        stmt (Rows None)
          "SELECT owner FROM accounts WHERE id IN ( SELECT id FROM accounts \
           WHERE balance > %d ) ORDER BY owner"
          (between rng 0 999)
      | 4 ->
        let b = between rng 0 999 in
        stmt
          (Count (Hashtbl.fold (fun _ v n -> if v > b then n + 1 else n) balance 0))
          "SELECT COUNT ( * ) FROM accounts WHERE balance > %d" b
      | _ ->
        let k = if valid then Queue.pop live else pick rng live in
        if valid then Hashtbl.remove balance k;
        stmt (Affected 1) "DELETE FROM accounts WHERE id = %d" k
    in
    emit (if valid then s else corrupt rng s)
  done;
  List.rev !out

let workloads =
  [
    ("crud", (Dialects.Dialect.embedded, crud));
    ("analytics", (Dialects.Dialect.analytics, analytics));
    ("bulk", (Dialects.Dialect.full, bulk));
    ("errors", (Dialects.Dialect.full, errors));
  ]

let make_workload name seed =
  match List.assoc_opt name workloads with
  | None -> None
  | Some (dialect, gen) ->
    let rng = Random.State.make [| seed; Hashtbl.hash name |] in
    Some { name; dialect; script = Array.of_list (gen rng) }

(* ---------- Checks ---------- *)

let check expect (r : (Engine.Executor.outcome, Core.error) result) =
  match (expect, r) with
  | Affected n, Ok (Engine.Executor.Affected m) -> n = m
  | Rows None, Ok (Engine.Executor.Rows _) -> true
  | Rows (Some n), Ok (Engine.Executor.Rows rs) -> List.length rs.rows = n
  | Count n, Ok (Engine.Executor.Rows { rows = [ [ Engine.Value.Int m ] ]; _ })
    ->
    n = m
  | Done, Ok (Engine.Executor.Done _) -> true
  | Reject_at off, Error (Core.Parse_error e) ->
    e.Parser_gen.Engine.pos.Lexing_gen.Token.offset = off
  | _ -> false

(* ---------- Set-up ---------- *)

type front = {
  g : Core.generated;
  server : int;  (** pid of the daemon process *)
  stop : Unix.file_descr;  (** closing it tells the daemon to stop *)
  client : Service.Client.t;
}

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("ledger: " ^ m); exit 1) fmt

(* The daemon runs in a forked child, as [sqlpl serve] runs in a process of
   its own: this process never spawns a domain, so the library path is
   measured without idle server domains joining its stop-the-world
   collections. The child inherits [cache] with the generated front end in
   it, so the client's hello finds it resident. The child prints its port,
   then serves until [stop] reads end of file. *)
let spawn_daemon cache =
  let ready_r, ready_w = Unix.pipe ~cloexec:true () in
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close ready_r;
    Unix.close stop_w;
    let code =
      match
        Service.Server.start ~workers:1 ~cache (Service.Wire.Tcp ("127.0.0.1", 0))
      with
      | Error m ->
        prerr_endline ("ledger: serve: " ^ m);
        1
      | Ok server ->
        let port =
          match Service.Server.address server with
          | Service.Wire.Tcp (_, port) -> port
          | Service.Wire.Unix_socket _ -> 0
        in
        let line = Printf.sprintf "%d\n" port in
        ignore (Unix.write_substring ready_w line 0 (String.length line));
        (try ignore (Unix.read stop_r (Bytes.create 1) 0 1)
         with Unix.Unix_error _ -> ());
        Service.Server.stop server;
        0
    in
    Unix._exit code
  | pid -> (
    Unix.close ready_w;
    Unix.close stop_r;
    let ic = Unix.in_channel_of_descr ready_r in
    let port = In_channel.input_line ic in
    close_in ic;
    match Option.bind port int_of_string_opt with
    | Some port -> (pid, stop_w, port)
    | None ->
      Unix.close stop_w;
      ignore (Unix.waitpid [] pid);
      fail "the daemon did not start")

let stop_daemon pid stop =
  Unix.close stop;
  ignore (Unix.waitpid [] pid)

(* Everything a user waits for before the first statement: compose and
   generate the dialect's parser, start the daemon on it and connect. *)
let set_up (d : Dialects.Dialect.t) =
  let cache = Service.Cache.create () in
  let t0 = now_ns () in
  let g =
    match Service.Cache.generate_dialect cache d with
    | Ok g -> g
    | Error e -> fail "generate %s: %s" d.name (Fmt.str "%a" Core.pp_error e)
  in
  let t1 = now_ns () in
  let server, stop, port = spawn_daemon cache in
  let client =
    match
      Service.Client.connect ~selection:(Service.Wire.Dialect d.name)
        (Service.Wire.Tcp ("127.0.0.1", port))
    with
    | Ok (c, _) -> c
    | Error e ->
      stop_daemon server stop;
      fail "connect: %s" (Fmt.str "%a" Service.Wire.pp_error e)
  in
  let t2 = now_ns () in
  ({ g; server; stop; client }, float (t2 - t0) /. 1e9, float (t1 - t0) /. 1e6)

let tear_down f =
  Service.Client.close f.client;
  stop_daemon f.server f.stop

(* ---------- Statistics ---------- *)

(* A growable buffer of samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  (* Nearest-rank percentile, [q] in (0, 1]. *)
  let percentile t q =
    if t.n = 0 then nan
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort compare s;
      s.(max 0 (min (t.n - 1) (int_of_float (ceil (q *. float t.n)) - 1)))
    end

  let median t = percentile t 0.5
end

(* ---------- Runs ---------- *)

let batch = 8

type run = {
  w : workload;
  f : front;
  text : string;  (** the whole script, statements joined by ";" *)
  batches : string list array;
  expected : string array;  (** library rendering of each batch's reply *)
  mutable attempted : int;
  mutable failed : int;
}

let prepare w f =
  let sqls = Array.map (fun s -> s.sql) w.script in
  let text = String.concat ";" (Array.to_list sqls) in
  if Core.split_statements text <> Array.to_list sqls then
    fail "%s: the statement splitter disagrees with the generator" w.name;
  let batches =
    Array.init
      ((Array.length sqls + batch - 1) / batch)
      (fun i ->
        Array.to_list
          (Array.sub sqls (i * batch) (min batch (Array.length sqls - (i * batch)))))
  in
  let session = Service.Session.create f.g in
  let expected =
    Array.map
      (fun stmts ->
        Service.Wire.encode_items
          (List.map
             (Service.Server.outcome_of_item Service.Wire.Cst)
             (Service.Session.parse_batch session stmts).Service.Session.items))
      batches
  in
  { w; f; text; batches; expected; attempted = 0; failed = 0 }

let tally r ok =
  r.attempted <- r.attempted + 1;
  if not ok then r.failed <- r.failed + 1

(* One daemon pass. [on_reply i t0 t1 server_ns] sees batch [i]'s round
   trip, sent at [t0] and answered at [t1], and the server's own time. *)
let wire_pass r on_reply =
  Array.iteri
    (fun i stmts ->
      let t0 = now_ns () in
      let reply = Service.Client.request ~mode:Service.Wire.Cst r.f.client stmts in
      let t1 = now_ns () in
      match reply with
      | Ok reply ->
        tally r (Service.Wire.encode_items reply.Service.Wire.items = r.expected.(i));
        on_reply i t0 t1 (Int64.to_int reply.Service.Wire.stats.elapsed_ns)
      | Error _ -> tally r false)
    r.batches

(* The library path exactly as a [Core] user drives it. Returns the pass's
   busy time in ns. *)
let library_pass r on_stmt =
  let t0 = now_ns () in
  let stmts = Core.split_statements r.text in
  let busy = ref (now_ns () - t0) in
  let session = Core.session r.f.g in
  List.iteri
    (fun i sql ->
      let a = now_ns () in
      let res = Core.run session sql in
      let b = now_ns () in
      busy := !busy + (b - a);
      on_stmt (b - a);
      tally r (check r.w.script.(i).expect res))
    stmts;
  !busy

(* Whole passes, at least one, until [deadline]. *)
let rec passes ~deadline pass =
  pass ();
  if now_ns () < deadline then passes ~deadline pass

let end_to_end r ~deadline =
  let lat = Samples.create () and rtt = Samples.create () in
  let throughput = Samples.create () in
  passes ~deadline (fun () ->
      let busy = library_pass r (fun ns -> Samples.add lat (float ns)) in
      Samples.add throughput (float (String.length r.text) /. float busy *. 1e3);
      wire_pass r (fun _ t0 t1 _ -> Samples.add rtt (float (t1 - t0))));
  [
    ("stmt_p50_us", "us", Samples.median lat /. 1e3);
    ("stmt_p95_us", "us", Samples.percentile lat 0.95 /. 1e3);
    ("script_mb_s", "MB/s", Samples.median throughput);
    ("wire_p50_us", "us", Samples.median rtt /. 1e3);
  ]

(* ---------- Traced run ---------- *)

(* A layer's work in one pass: busy time, minor words allocated, and the
   units of work it did (bytes, tokens or statements). *)
type layer = { lname : string; mutable ns : int; mutable words : float; mutable units : int }

let layer lname = { lname; ns = 0; words = 0.; units = 0 }

type span = {
  id : int;
  parent : int;
  sname : string;
  start : int;
  stop : int;
  request : int;  (** statement or batch index: spans of one request share it *)
}

(* Spans are kept in memory while [recording] (the first traced pass) and
   written out when the run ends. *)
type tracer = {
  mutable spans : span list;
  mutable next_id : int;
  mutable recording : bool;
}

let fresh tr =
  let id = tr.next_id in
  tr.next_id <- id + 1;
  id

let record tr id ~parent ~request sname start stop =
  if tr.recording then
    tr.spans <- { id; parent; sname; start; stop; request } :: tr.spans

(* Runs [f] as one layer call: a span under [parent], its time and
   allocation charged to [l]. Neither the clock nor the allocation counter
   allocates. *)
let timed tr l ~parent ~request f =
  let t0 = now_ns () in
  let w0 = Gc.minor_words () in
  let v = f () in
  let w1 = Gc.minor_words () in
  let t1 = now_ns () in
  l.ns <- l.ns + (t1 - t0);
  l.words <- l.words +. (w1 -. w0);
  record tr (fresh tr) ~parent ~request l.lname t0 t1;
  v

(* The library pass again, each layer called on its own: exactly the calls
   [Core.run] makes (scan_tokens, parse_tokens, Lower.statement,
   Database.execute), so the layers' times add up to the end-to-end path. *)
let traced_library_pass r tr =
  let split = layer "split" and scan = layer "scan" and parse = layer "parse"
  and lower = layer "lower" and execute = layer "execute" in
  let g = r.f.g in
  let pass = fresh tr and pass_start = now_ns () in
  let stmts =
    timed tr split ~parent:pass ~request:(-1) (fun () ->
        Core.split_statements r.text)
  in
  split.units <- String.length r.text;
  let db = Core.database (Core.session g) in
  List.iteri
    (fun i sql ->
      let id = fresh tr and start = now_ns () in
      let call l f = timed tr l ~parent:id ~request:i f in
      let result =
        match call scan (fun () -> Core.scan_tokens g sql) with
        | Error e -> Error e
        | Ok tokens -> (
          let n = Array.length tokens - 1 in
          scan.units <- scan.units + n;
          parse.units <- parse.units + n;
          match
            call parse (fun () -> Parser_gen.Engine.parse_tokens g.parser tokens)
          with
          | Error e -> Error (Core.Parse_error e)
          | Ok cst -> (
            lower.units <- lower.units + 1;
            match call lower (fun () -> Lower.statement cst) with
            | Error e -> Error (Core.Lowering_error e)
            | Ok ast ->
              execute.units <- execute.units + 1;
              Result.map_error
                (fun m -> Core.Execution_error m)
                (call execute (fun () -> Engine.Database.execute db ast))))
      in
      record tr id ~parent:pass ~request:i "statement" start (now_ns ());
      tally r (check r.w.script.(i).expect result))
    stmts;
  record tr pass ~parent:(-1) ~request:(-1) "library_pass" pass_start (now_ns ());
  [ split; scan; parse; lower; execute ]

let traced_wire_pass r tr ~rtt ~server =
  let pass = fresh tr and pass_start = now_ns () in
  wire_pass r (fun i t0 t1 server_ns ->
      Samples.add rtt (float (t1 - t0));
      Samples.add server (float server_ns);
      record tr (fresh tr) ~parent:pass ~request:i "request" t0 t1);
  record tr pass ~parent:(-1) ~request:(-1) "wire_pass" pass_start (now_ns ())

(* Share of tokens the memoized fallback matches: tokens with no committed
   non-terminal among their CST ancestors (a committed non-terminal's whole
   subtree runs on committed dispatch). *)
let fallback_token_share (g : Core.generated) script =
  let committed = Hashtbl.create 64 in
  List.iter
    (fun (c : Parser_gen.Engine.nt_class) -> Hashtbl.replace committed c.nt_name c.nt_committed)
    (Core.dispatch_summary g).classes;
  let fb = ref 0 and all = ref 0 in
  let rec walk under = function
    | Parser_gen.Cst.Leaf _ ->
      incr all;
      if not under then incr fb
    | Parser_gen.Cst.Node (l, kids) ->
      let under = under || Hashtbl.find_opt committed l = Some true in
      List.iter (walk under) kids
  in
  Array.iter
    (fun s -> match Core.parse_cst g s.sql with Ok cst -> walk false cst | Error _ -> ())
    script;
  float !fb /. float (max 1 !all)

let write_spans r seed spans =
  let dir = ".ledger_out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "trace-%s-%d.jsonl" r.w.name seed) in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"name\": %S, \"start_ns\": %d, \"end_ns\": %d, \"request\": %d}\n"
        s.id s.parent s.sname s.start s.stop s.request)
    (List.rev spans);
  close_out oc

let per_layer r ~deadline ~seed ~generate_ms =
  let tr = { spans = []; next_id = 0; recording = true } in
  let ratios = Hashtbl.create 16 in
  let sample name x =
    let s =
      match Hashtbl.find_opt ratios name with
      | Some s -> s
      | None ->
        let s = Samples.create () in
        Hashtbl.add ratios name s;
        s
    in
    Samples.add s x
  in
  let rtt = Samples.create () and server = Samples.create () in
  passes ~deadline (fun () ->
      let major0 = (Gc.quick_stat ()).Gc.major_collections in
      let layers = traced_library_pass r tr in
      sample "major_collections_per_pass"
        (float ((Gc.quick_stat ()).Gc.major_collections - major0));
      List.iter
        (fun l ->
          let per = 1. /. float (max 1 l.units) in
          sample l.lname (float l.ns *. per);
          sample (l.lname ^ "_words") (l.words *. per))
        layers;
      traced_wire_pass r tr ~rtt ~server;
      if tr.recording then begin
        write_spans r seed tr.spans;
        tr.spans <- [];
        tr.recording <- false
      end);
  let med name = Samples.median (Hashtbl.find ratios name) in
  let summary = Core.dispatch_summary r.f.g in
  let wire_self = Samples.create () in
  for i = 0 to rtt.n - 1 do
    Samples.add wire_self (rtt.a.(i) -. server.a.(i))
  done;
  [
    ("generate_ms", "ms", generate_ms);
    ("split_ns_per_byte", "ns/byte", med "split");
    ("scan_ns_per_token", "ns/token", med "scan");
    ("parse_ns_per_token", "ns/token", med "parse");
    ("lower_ns_per_stmt", "ns/stmt", med "lower");
    ("execute_ns_per_stmt", "ns/stmt", med "execute");
    ("server_us_per_request", "us/request", Samples.median server /. 1e3);
    ("wire_self_us_per_request", "us/request", Samples.median wire_self /. 1e3);
    ("scan_words_per_token", "words/token", med "scan_words");
    ("parse_words_per_token", "words/token", med "parse_words");
    ("lower_words_per_stmt", "words/stmt", med "lower_words");
    ("execute_words_per_stmt", "words/stmt", med "execute_words");
    ("major_collections_per_pass", "count/pass", med "major_collections_per_pass");
    ("fallback_token_share", "ratio", fallback_token_share r.f.g r.w.script);
    ( "committed_nt_share",
      "ratio",
      float summary.committed_nts /. float (max 1 summary.total_nts) );
  ]

(* ---------- Main ---------- *)

let set_ups = 3

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME crud|analytics|bulk|errors");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ledger --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match make_workload !workload !seed with
    | Some w -> w
    | None -> fail "unknown workload %S" !workload
  in
  (* Set up several times and keep the last front end: the median is the
     set-up time, steadier than any single one. *)
  let setups = Samples.create () and generates = Samples.create () in
  let f = ref None in
  for _ = 1 to set_ups do
    Option.iter tear_down !f;
    let front, setup_s, generate_ms = set_up w.dialect in
    Samples.add setups setup_s;
    Samples.add generates generate_ms;
    f := Some front
  done;
  let f = Option.get !f in
  let r = prepare w f in
  (* One untimed pass warms the per-domain arenas and checks every outcome. *)
  ignore (library_pass r ignore);
  wire_pass r (fun _ _ _ _ -> ());
  let deadline = now_ns () + (!seconds * 1_000_000_000) in
  let metrics =
    if !trace = 0 then
      end_to_end r ~deadline @ [ ("setup_s", "s", Samples.median setups) ]
    else per_layer r ~deadline ~seed:!seed ~generate_ms:(Samples.median generates)
  in
  tear_down f;
  Printf.printf "ledger %s, seed %d, %d s; host: %d cores, OCaml %s\n" w.name
    !seed !seconds
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
          metrics))

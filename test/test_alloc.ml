(* Allocation regression for the SoA accept path.

   The point of the struct-of-arrays token stream and the bytecode VM is
   that recognizing a statement allocates nothing per token: the scanner
   writes kind ids and offsets into reusable int arrays in a per-domain
   arena (keywords probed in place through [Ci_map.find_idx], extents found
   by argument-passing tail recursion — no refs, no options, no closures in
   the hot loop), and the VM reads the ids in place with explicit int
   stacks. No [Token.t] record, list cell, or CST node is built unless a
   CST leaf or an error edge demands one.

   What remains is a per-{e call} constant — the result boxing, the token
   accessors, and the closure spine [Engine.parse_ids] builds for one
   run — which is independent of statement length. The tests
   therefore measure with [Gc.minor_words] over warm arenas and pin both
   axes separately:

   - the {e marginal} cost per token, measured as the allocation difference
     between a long and a short statement over warm arenas: budget
     {b 0.1 words/token} (measured ~0.003);
   - the {e fixed} cost per recognize call on a short-statement corpus:
     budget {b 2000 words/statement} (measured ~110);
   - and the SoA path must beat materialization: on a long statement,
     scan+recognize end to end must allocate under a quarter of what
     [scan_tokens] pays for the token records alone (~13 words/token). *)

let check_bool = Alcotest.(check bool)

let front_end name =
  match
    Core.generate_dialect
      (List.find
         (fun (d : Dialects.Dialect.t) -> d.Dialects.Dialect.name = name)
         Dialects.Dialect.all)
  with
  | Ok g -> g
  | Error e -> Alcotest.failf "generate %s: %a" name Core.pp_error e

(* A wide tinysql projection: m extra select-list items, one token of
   punctuation between each — token count grows linearly in m. *)
let wide_select m =
  let b = Buffer.create (16 * m) in
  Buffer.add_string b "SELECT nodeid";
  for i = 1 to m do
    Buffer.add_string b ", f";
    Buffer.add_string b (string_of_int i)
  done;
  Buffer.add_string b " FROM sensors WHERE temp > 100";
  Buffer.contents b

let token_count (g : Core.generated) sql =
  match Core.scan_soa g sql with
  | Ok soa -> Lexing_gen.Scanner.soa_count soa
  | Error e -> Alcotest.failf "scan %s: %a" sql Core.pp_error e

let measure_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let rounds = 40

let recognize_words (g : Core.generated) sql =
  (match Core.recognize g sql with
  | Ok () -> ()
  | Error e -> Alcotest.failf "recognize %s: %a" sql Core.pp_error e);
  measure_words (fun () ->
      for _ = 1 to rounds do
        ignore (Core.recognize g sql)
      done)
  /. float_of_int rounds

let test_fixed_cost_per_statement () =
  let g = front_end "tinysql" in
  let corpus =
    List.filter
      (fun sql -> Result.is_ok (Core.recognize g sql))
      Corpus.tinysql_accept
  in
  check_bool "corpus is non-trivial" true (List.length corpus >= 3);
  let words =
    measure_words (fun () ->
        for _ = 1 to rounds do
          List.iter (fun sql -> ignore (Core.recognize g sql)) corpus
        done)
  in
  let per_stmt = words /. float_of_int (rounds * List.length corpus) in
  check_bool
    (Printf.sprintf
       "per-call overhead is %.0f words per statement (budget 2000)" per_stmt)
    true
    (per_stmt < 2000.)

let test_recognize_beats_materialization () =
  let g = front_end "tinysql" in
  let sql = wide_select 500 in
  let tokens = token_count g sql in
  ignore (Core.recognize g sql);
  let soa_words = recognize_words g sql in
  let mat_words =
    measure_words (fun () ->
        for _ = 1 to rounds do
          ignore (Core.scan_tokens g sql)
        done)
    /. float_of_int rounds
  in
  check_bool
    (Printf.sprintf
       "scan+recognize (%.1f w/token) allocates under a quarter of \
        scan_tokens alone (%.1f w/token)"
       (soa_words /. float_of_int tokens)
       (mat_words /. float_of_int tokens))
    true
    (soa_words < mat_words /. 4.)

let test_recognize_marginal_is_free () =
  (* Scan+recognize end to end over a wide statement must allocate nothing
     per token: the scanner writes into its per-domain arena (toplevel scan
     helpers, no closures per token), and the VM reads kind ids as plain
     ints. Budget 0.1 w/token over both spans, from a short statement of
     5 and of 50 extra items up to 500. *)
  let g = front_end "tinysql" in
  let long = wide_select 500 in
  List.iter
    (fun m ->
      let short = wide_select m in
      let dt = token_count g long - token_count g short in
      check_bool "token counts differ" true (dt > 400);
      let per_token =
        (recognize_words g long -. recognize_words g short) /. float_of_int dt
      in
      check_bool
        (Printf.sprintf
           "warm scan+recognize allocates %.4f words per extra token from \
            %d to 500 items (budget 0.1)"
           per_token m)
        true
        (per_token < 0.1))
    [ 5; 50 ]

let test_scan_soa_marginal_is_free () =
  (* The scanner core in isolation: rescanning with 10x the tokens costs
     (almost) nothing more — the arena is reused, the hot loop allocates
     nothing per token. *)
  let g = front_end "tinysql" in
  let short = wide_select 50 and long = wide_select 500 in
  let scan_words sql =
    ignore (Core.scan_soa g sql);
    measure_words (fun () ->
        for _ = 1 to rounds do
          ignore (Core.scan_soa g sql)
        done)
    /. float_of_int rounds
  in
  let dt = token_count g long - token_count g short in
  let per_token = (scan_words long -. scan_words short) /. float_of_int dt in
  check_bool
    (Printf.sprintf "warm scan_soa allocates %.2f words per extra token"
       per_token)
    true
    (per_token < 1.0)

(* A full-dialect WHERE clause of m comparisons joined by AND. Every
   expression choice point it meets commits on its lookahead — the
   comparison side of [boolean_primary] and [predicate], a column or a
   literal in [value_expression_primary] — even though those points are
   ambiguous on other lookaheads. *)
let wide_where m =
  let b = Buffer.create (24 * m) in
  Buffer.add_string b "SELECT a FROM t WHERE c0 = 0";
  for i = 1 to m do
    Printf.bprintf b " AND c%d = %d" i i
  done;
  Buffer.contents b

let test_partial_points_commit () =
  (* Per-lookahead commitment keeps such statements off the memoized
     fallback, so recognition stays allocation-free per token on full too.
     Budget 0.1 w/token, as for tinysql above. *)
  let g = front_end "full" in
  let short = wide_where 10 and long = wide_where 100 in
  let dt = token_count g long - token_count g short in
  let per_token =
    (recognize_words g long -. recognize_words g short) /. float_of_int dt
  in
  check_bool
    (Printf.sprintf
       "full: recognition of a wide WHERE allocates %.3f words per extra \
        token (budget 0.1)"
       per_token)
    true
    (per_token < 0.1)

(* A multi-row INSERT on full: [insert_source] is ambiguous on VALUES
   LPAREN, so the statement goes through the memoized fallback oracle. *)
let bulk_insert rows =
  let b = Buffer.create (16 * rows) in
  Buffer.add_string b "INSERT INTO t VALUES ";
  for i = 1 to rows do
    if i > 1 then Buffer.add_string b ", ";
    Printf.bprintf b "(%d, 'x%d')" i i
  done;
  Buffer.contents b

let test_fallback_memo_is_bounded () =
  (* The first parse of a 1000-row INSERT, in a fresh domain (fresh
     arenas), counting every word it allocates: minor + major − promoted
     ([Gc.allocated_bytes]), because a memo sized rules × tokens would be
     allocated in the major heap. The memo is sparse, and the oracle
     derives [insert_source]'s query form only if [values_clause] cannot
     finish the statement, so the parse costs a few words per token.
     Budget 60 w/token: a memo slot per rule and position alone would be
     140 on full. The same budget holds for [Core.parse_cst], which also
     scans into a fresh SoA arena and materializes the token records its
     CST leaves need. A minor collection runs first so that none falls
     inside the measured parse (OCaml 5.1's minor-word counter drifts
     across collections). *)
  let g = front_end "full" in
  let sql = bulk_insert 1000 in
  let toks =
    match Core.scan_tokens g sql with
    | Ok toks -> toks
    | Error e -> Alcotest.failf "scan: %a" Core.pp_error e
  in
  let first_parse_words parse =
    Domain.join
      (Domain.spawn (fun () ->
           Gc.minor ();
           let before = Gc.allocated_bytes () in
           let accepted = parse () in
           let words =
             (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
           in
           (accepted, words /. float_of_int (Array.length toks))))
  in
  List.iter
    (fun (label, parse) ->
      let accepted, per_token = first_parse_words parse in
      check_bool (Printf.sprintf "%s accepts the INSERT" label) true accepted;
      check_bool
        (Printf.sprintf
           "full: first %s of a 1000-row INSERT allocates %.1f words per \
            token (budget 60)"
           label per_token)
        true (per_token < 60.))
    [
      ( "parse_tokens",
        fun () -> Result.is_ok (Parser_gen.Engine.parse_tokens g.Core.parser toks)
      );
      ("Core.parse_cst", fun () -> Result.is_ok (Core.parse_cst g sql));
    ]

(* The ledger's bulk statement: rows of four values, ten tokens a row. *)
let readings_insert rows =
  let b = Buffer.create (40 * rows) in
  Buffer.add_string b
    "INSERT INTO readings ( nodeid , temp , light , note ) VALUES ";
  for i = 1 to rows do
    if i > 1 then Buffer.add_string b " , ";
    Printf.bprintf b "( %d , %d.%02d , %d , 'n%d' )" (i mod 64) (i mod 100)
      (i mod 97) (i * 7 mod 1024) i
  done;
  Buffer.contents b

(* A boxed array over 256 words is allocated in the major heap, and
   [Array.make]/[Array.init] with an initial element still in the minor heap
   first force a minor collection; the array's stores then promote every
   token at the next one. The token paths must pay neither on long
   statements: over k runs, minor collections stay within what the words
   allocated explain (one per minor heap filled, plus one per completed
   major cycle, whose end also empties the minor heap), and on the 48-row
   INSERT the parse paths promote under 10 words per token (31 when every
   parse forced a collection). [scan_tokens] returns its array, so its
   tokens are promoted at the next collection by design; only its
   collection count is pinned. *)
let test_no_forced_minor_collections () =
  let g = front_end "full" in
  List.iter
    (fun (rows, k) ->
      let sql = readings_insert rows in
      let tokens = token_count g sql in
      List.iter
        (fun (label, run, pin_promotion) ->
          check_bool (Printf.sprintf "%s accepts" label) true (run sql);
          Gc.minor ();
          let s0 = Gc.quick_stat () in
          for _ = 1 to k do
            ignore (run sql)
          done;
          let s1 = Gc.quick_stat () in
          let minors = s1.minor_collections - s0.minor_collections in
          let majors = s1.major_collections - s0.major_collections in
          let words = s1.minor_words -. s0.minor_words in
          let explained =
            (words /. float_of_int (Gc.get ()).minor_heap_size)
            +. float_of_int majors +. 2.
          in
          check_bool
            (Printf.sprintf
               "%s on %d tokens: %d minor collections over %d runs, within \
                the %.1f the allocation explains"
               label tokens minors k explained)
            true
            (float_of_int minors <= explained);
          if pin_promotion && rows = 48 then begin
            let promoted =
              (s1.promoted_words -. s0.promoted_words)
              /. float_of_int (k * tokens)
            in
            check_bool
              (Printf.sprintf
                 "%s promotes %.1f words per token on %d tokens (budget 10)"
                 label promoted tokens)
              true (promoted < 10.)
          end)
        [
          ("Core.parse_cst", (fun sql -> Result.is_ok (Core.parse_cst g sql)), true);
          ("Core.recognize", (fun sql -> Result.is_ok (Core.recognize g sql)), true);
          ( "Scanner.scan_tokens",
            (fun sql ->
              Result.is_ok (Lexing_gen.Scanner.scan_tokens g.Core.scanner sql)),
            false );
        ])
    [ (48, 40); (1000, 10) ]

(* The bulk INSERT runs through the fallback oracle. Building its CST
   closes rows and then materializes every leaf's token; recognition does
   neither, so it allocates at least 10 words per token less (measured
   0.6 against 31). *)
let test_recognition_materializes_no_token () =
  let g = front_end "full" in
  let sql = readings_insert 48 in
  let tokens = float_of_int (token_count g sql) in
  let per_token run =
    check_bool "accepted" true (run ());
    measure_words (fun () ->
        for _ = 1 to rounds do
          ignore (run ())
        done)
    /. float_of_int rounds /. tokens
  in
  let parse = per_token (fun () -> Result.is_ok (Core.parse_cst g sql)) in
  let words = per_token (fun () -> Result.is_ok (Core.recognize g sql)) in
  check_bool
    (Printf.sprintf
       "Core.recognize allocates %.1f words per token, Core.parse_cst %.1f (at \
        least 10 less)"
       words parse)
    true
    (words < parse -. 10.)

(* The same INSERT grows by rows inside one fallback occurrence, and the
   oracle takes the rows in one strict run of the bytecode VM, which builds
   no CST node when recognizing. Rows therefore cost (almost) nothing per
   token: budget 0.1 words per extra token from 48 to 480 rows (measured
   0.004; about 33 when strict runs build their nodes regardless). *)
let test_strict_runs_recognize_free () =
  let g = front_end "full" in
  let short = readings_insert 48 and long = readings_insert 480 in
  let dt = token_count g long - token_count g short in
  let per_token =
    (recognize_words g long -. recognize_words g short) /. float_of_int dt
  in
  check_bool
    (Printf.sprintf
       "full: recognizing a readings INSERT allocates %.3f words per extra \
        token from 48 to 480 rows (budget 0.1)"
       per_token)
    true (per_token < 0.1)

(* Words allocated by [f] in the minor and the major heap, after a minor
   collection (so that none falls inside a short span). [Gc.quick_stat]'s
   word counts only move at collections in OCaml 5.1; [Gc.minor_words] and
   [Gc.counters] read the live counters. *)
let heap_words f =
  Gc.minor ();
  let _, _, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  f ();
  let minor1 = Gc.minor_words () in
  let _, _, major1 = Gc.counters () in
  (minor1 -. minor0, major1 -. major0)

(* Rendering a parse's rows into a warm buffer allocates nothing, in
   either encoding: the layout reads each node's stored width, the leaves'
   texts are copied from the token stream in place, and nothing recurses
   through a closure or builds an intermediate string. *)
let test_render_is_allocation_free () =
  let g = front_end "full" in
  let rows =
    match Core.parse_rows g (readings_insert 48) with
    | Ok rows -> rows
    | Error e -> Alcotest.failf "parse: %a" Core.pp_error e
  in
  let o = Parser_gen.Out.create 16 in
  List.iter
    (fun json ->
      Parser_gen.Rows.render o ~json rows;
      let minor, major =
        heap_words (fun () ->
            for _ = 1 to rounds do
              o.len <- 0;
              Parser_gen.Rows.render o ~json rows
            done)
      in
      check_bool
        (Printf.sprintf
           "rendering a 48-row INSERT's rows (%d bytes%s) into a warm buffer %d \
            times allocates %.0f minor and %.0f major words (budget 0)"
           o.len (if json then ", JSON" else "") rounds minor major)
        true
        (minor = 0. && major = 0.))
    [ false; true ]

(* Encoding a reply frame as the server does ([Wire.encode_reply_into] into
   the connection's writer, each tree's rows rendered as the producer
   yields them) writes each tree into the warm writer: no major-heap
   allocation at all, and a minor-heap cost per batch that does not grow
   with the reply (the encoder closures). A per-statement string would
   cost major words here (every string over 2 KiB is a major-heap block)
   and grow with the rows. The trees are parsed, and built as rows of
   their own ([Tree_rows.of_cst]), beforehand, so only the encoding is
   measured. Checked on 8-statement batches of 8- and 64-row INSERTs, in
   both encodings. *)
let test_reply_encoding_is_bounded () =
  let g = front_end "full" in
  let session = Service.Session.create g in
  let out = Service.Wire.writer () in
  List.iter
    (fun rows ->
      let batch =
        Service.Session.parse_batch session (List.init 8 (fun _ -> readings_insert rows))
      in
      let s = batch.Service.Session.batch_stats in
      check_bool "batch accepted" true (s.Service.Session.accepted = 8);
      let stats =
        {
          Service.Wire.statements = s.Service.Session.statements;
          accepted = s.Service.Session.accepted;
          rejected = s.Service.Session.rejected;
          tokens = s.Service.Session.tokens;
          elapsed_ns = 0L;
        }
      in
      let outcomes =
        List.map
          (fun (item : Service.Session.item) ->
            match item.result with
            | Ok cst ->
              Service.Wire.Accepted
                { tokens = item.token_count;
                  cst = Some (Service.Wire.Rows (Tree_rows.of_cst cst)) }
            | Error e -> Alcotest.failf "parse: %a" Core.pp_error e)
          batch.Service.Session.items
      in
      List.iter
        (fun (label, enc) ->
          let encode () =
            Service.Wire.encode_reply_into out enc ~id:0 (fun emit ->
                List.iter emit outcomes;
                stats)
          in
          encode ();
          let minor, major =
            heap_words (fun () ->
                for _ = 1 to rounds do
                  encode ()
                done)
          in
          let per_batch = minor /. float_of_int rounds in
          check_bool
            (Printf.sprintf
               "%s reply of 8 %d-row INSERTs (a %d-byte writer) allocates %.0f \
                minor words per batch (budget 1000) and %.0f major words \
                (budget 0)"
               label rows (Service.Wire.writer_capacity out) per_batch major)
            true
            (per_batch < 1000. && major = 0.))
        [ ("binary", Service.Wire.Binary); ("JSON", Service.Wire.Json) ])
    [ 8; 64 ]

(* Generating a parser allocates its lookahead sets on the minor heap: a
   sequence set of the k = 2 analysis is an epsilon flag, a singles plane
   and an array of per-first-token rows (the shared [[||]] when no pair
   starts with that token), each under [Max_young_wosize] on the largest
   dialect. Measured over a warm family artifact as words allocated
   directly on the major heap ([major_words - promoted_words]): budget
   1 M words (measured 23 k; 13.5 M when each set carried a dense
   n × n pairs plane of 848 words). *)
let test_generation_stays_on_minor_heap () =
  ignore (front_end "full");
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  ignore (front_end "full");
  Gc.full_major ();
  let s1 = Gc.quick_stat () in
  let direct (s : Gc.stat) = s.major_words -. s.promoted_words in
  let words = direct s1 -. direct s0 in
  check_bool
    (Printf.sprintf
       "generating full allocates %.0f words directly on the major heap \
        (budget 1000000)"
       words)
    true (words < 1e6)

(* The compiled executor against the interpreter it replaced, on the
   statement shapes that dominate the analytics workload, over one seeded
   star schema (8 regions, 120 sales). Each statement is run once to warm
   up, then measured alone right after a minor collection, so the span
   stays far below the minor heap. The compiled executor must allocate at
   most half the interpreter's minor words on every shape, and stay within
   a fixed budget per shape (measured: 3.8 k, 9.6 k, 2.3 k and 5.8 k words
   against the interpreter's 73 k, 85 k, 80 k and 18 k). *)
let executor_shapes =
  [
    ( "join + GROUP BY + HAVING",
      "SELECT r.region , SUM ( s.amount ) AS total FROM sales AS s INNER JOIN \
       regions AS r ON s.region_id = r.id WHERE s.yr = 2004 GROUP BY r.region \
       HAVING SUM ( s.amount ) > 200 ORDER BY total DESC FETCH FIRST 5 ROWS ONLY",
      8_000. );
    ( "LEFT OUTER JOIN + COUNT(DISTINCT)",
      "SELECT UPPER ( r.region ) , COUNT ( DISTINCT s.yr ) FROM regions AS r LEFT \
       OUTER JOIN sales AS s ON s.region_id = r.id WHERE r.id > 3 OR r.id <= 3 \
       GROUP BY r.region",
      20_000. );
    ( "IN subquery",
      "SELECT id , amount FROM sales WHERE region_id IN ( SELECT id FROM regions \
       WHERE region = 'r2' )",
      5_000. );
    ( "CTE + GROUP BY",
      "WITH top ( region_id , total ) AS ( SELECT region_id , SUM ( amount ) FROM \
       sales GROUP BY region_id ) SELECT region_id FROM top WHERE total > 2000",
      12_000. );
  ]

let test_executor_allocates_half () =
  let g = front_end "analytics" in
  let s = Core.session g in
  let run sql =
    match Core.run s sql with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: %a" sql Core.pp_error e
  in
  let rng = Random.State.make [| 26 |] in
  run "CREATE TABLE regions ( id INTEGER , region VARCHAR ( 20 ) )";
  run "CREATE TABLE sales ( id INTEGER , region_id INTEGER , yr INTEGER , amount INTEGER )";
  run
    ("INSERT INTO regions ( id , region ) VALUES "
    ^ String.concat " , " (List.init 8 (fun i -> Printf.sprintf "( %d , 'r%d' )" (i + 1) i)));
  run
    ("INSERT INTO sales ( id , region_id , yr , amount ) VALUES "
    ^ String.concat " , "
        (List.init 120 (fun i ->
             Printf.sprintf "( %d , %d , %d , %d )" (i + 1)
               (1 + Random.State.int rng 8)
               (2000 + Random.State.int rng 10)
               (1 + Random.State.int rng 500))));
  let catalog = Engine.Database.catalog (Core.database s) in
  List.iter
    (fun (shape, sql, budget) ->
      let stmt =
        match Core.parse_statement g sql with
        | Ok stmt -> stmt
        | Error e -> Alcotest.failf "%s: %a" sql Core.pp_error e
      in
      let words execute =
        ignore (execute catalog stmt);
        Gc.minor ();
        measure_words (fun () -> ignore (execute catalog stmt))
      in
      let compiled = words Engine.Executor.run_statement in
      let interpreted = words Oracle.Interp.run_statement in
      check_bool
        (Printf.sprintf
           "%s: compiled %.0f words, interpreter %.0f (at most half, budget %.0f)"
           shape compiled interpreted budget)
        true
        (compiled <= interpreted /. 2. && compiled <= budget))
    executor_shapes

(* The daemon answers a recognize-mode request, and each statement of a
   raw stream, with the recognizer: no tree is built, so a statement costs
   nothing per token there, as for [Core.recognize] itself. Budget
   0.1 words per extra token from a 500- to a 2000-item projection (both
   over 2 KiB, so the stream's statement buffer grows past the minor heap
   for either). Measured 0.004 on both; 79 when the trees are built. *)
let reader_of_string s =
  let pos = ref 0 in
  fun buf off len ->
    let n = min len (String.length s - !pos) in
    Bytes.blit_string s !pos buf off n;
    pos := !pos + n;
    n

let test_daemon_recognition_builds_no_tree () =
  let g = front_end "tinysql" in
  let session = Service.Session.create g in
  let out = Service.Wire.writer () in
  let short = wide_select 500 and long = wide_select 2000 in
  let dt = token_count g long - token_count g short in
  List.iter
    (fun (label, run) ->
      let words sql =
        run sql;
        measure_words (fun () ->
            for _ = 1 to rounds do
              run sql
            done)
        /. float_of_int rounds
      in
      let per_token = (words long -. words short) /. float_of_int dt in
      check_bool
        (Printf.sprintf
           "%s allocates %.3f words per extra token from 500 to 2000 items \
            (budget 0.1)"
           label per_token)
        true (per_token < 0.1))
    [
      ( "a recognize-mode request",
        fun sql ->
          Service.Server.reply_into session out Service.Wire.Binary
            { Service.Wire.id = 0; mode = Service.Wire.Recognize;
              statements = [ sql ] } );
      ( "a raw-stream statement",
        fun sql ->
          let s =
            Service.Server.stream_lines session ~read:(reader_of_string sql)
              ~write:ignore
          in
          if s.Service.Session.accepted <> 1 then
            Alcotest.failf "stream rejected %s" sql );
    ]

(* A Cst-mode request answered as the daemon answers it
   ([Server.reply_into]): each statement is parsed to rows and rendered
   into the warm writer, with no [Cst.t] built, so a reply costs (almost)
   nothing per token. Budget 1 minor word per extra token from 8-statement
   requests of 8-row to 64-row readings INSERTs, and no major word
   (measured 0.000; [Core.parse_cst], which builds the trees, allocates
   about 31 words per token on the same INSERT). *)
let test_daemon_cst_replies_are_flat () =
  let g = front_end "full" in
  let session = Service.Session.create g in
  let out = Service.Wire.writer () in
  let request rows =
    { Service.Wire.id = 0; mode = Service.Wire.Cst;
      statements = List.init 8 (fun _ -> readings_insert rows) }
  in
  let tokens rows = 8 * token_count g (readings_insert rows) in
  List.iter
    (fun (label, enc) ->
      let words rows =
        let r = request rows in
        Service.Server.reply_into session out enc r;
        heap_words (fun () ->
            for _ = 1 to rounds do
              Service.Server.reply_into session out enc r
            done)
      in
      let minor8, major8 = words 8 and minor64, major64 = words 64 in
      let per_token =
        (minor64 -. minor8) /. float_of_int rounds
        /. float_of_int (tokens 64 - tokens 8)
      in
      check_bool
        (Printf.sprintf
           "%s Cst replies allocate %.3f minor words per extra token from 8 \
            to 64 rows (budget 1) and %.0f + %.0f major words (budget 0)"
           label per_token major8 major64)
        true
        (per_token < 1. && major8 = 0. && major64 = 0.))
    [ ("binary", Service.Wire.Binary); ("JSON", Service.Wire.Json) ]

let suite =
  [
    Alcotest.test_case "per-statement overhead is bounded" `Quick
      test_fixed_cost_per_statement;
    Alcotest.test_case "SoA path beats materialization by > 4x" `Quick
      test_recognize_beats_materialization;
    Alcotest.test_case "warm scan_soa is allocation-free per token" `Quick
      test_scan_soa_marginal_is_free;
    Alcotest.test_case "scan+recognize is allocation-free per token" `Quick
      test_recognize_marginal_is_free;
    Alcotest.test_case
      "full: partial points keep a wide WHERE allocation-free per token"
      `Quick test_partial_points_commit;
    Alcotest.test_case
      "full: first parse of a 1000-row INSERT allocates < 60 words per token"
      `Quick test_fallback_memo_is_bounded;
    Alcotest.test_case
      "long statements force no minor collection and promote no stream"
      `Quick test_no_forced_minor_collections;
    Alcotest.test_case "fallback-heavy recognition materializes no token"
      `Quick test_recognition_materializes_no_token;
    Alcotest.test_case "rendering a CST into a warm buffer allocates nothing"
      `Quick test_render_is_allocation_free;
    Alcotest.test_case
      "reply encoding allocates no major words and a bounded minor cost"
      `Quick test_reply_encoding_is_bounded;
      Alcotest.test_case
      "full: generation allocates < 1 M words directly on the major heap"
      `Quick test_generation_stays_on_minor_heap;
    Alcotest.test_case
      "analytics shapes: the compiled executor allocates at most half the \
       interpreter's words"
      `Quick test_executor_allocates_half;
    Alcotest.test_case "full: strict runs recognize rows allocation-free"
      `Quick test_strict_runs_recognize_free;
    Alcotest.test_case
      "daemon recognize requests and raw streams build no tree"
      `Quick test_daemon_recognition_builds_no_tree;
    Alcotest.test_case "daemon Cst replies render rows, flat per token"
      `Quick test_daemon_cst_replies_are_flat;
  ]

(* The parser-service layer: configuration-keyed cache (canonical digests,
   LRU bounds, exact counters) and batched parse sessions (per-statement
   results, aggregate stats), plus the cache-equivalence property: a
   warm-cache front-end and a cold-path front-end accept/reject identically
   over the shared corpora and a grammar-sampled corpus, for every shipped
   dialect. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let dialect name =
  match Dialects.Dialect.find name with
  | Some d -> d
  | None -> Alcotest.failf "no dialect %s" name

let generate_ok ?label cache config =
  match Service.Cache.generate ?label cache config with
  | Ok g -> g
  | Error e -> Alcotest.failf "cache generate: %a" Core.pp_error e

(* --- digests ---------------------------------------------------------- *)

let test_digest_order_insensitive () =
  let a = Feature.Config.of_names [ "Where"; "Select List"; "From Clause" ] in
  let b = Feature.Config.of_names [ "From Clause"; "Where"; "Select List" ] in
  check_bool "same set, same digest" true
    (Service.Digest_key.equal
       (Service.Digest_key.of_config a)
       (Service.Digest_key.of_config b))

let test_digest_discriminates () =
  let digests =
    List.map
      (fun (d : Dialects.Dialect.t) ->
        Service.Digest_key.to_hex (Service.Digest_key.of_config d.config))
      Dialects.Dialect.all
  in
  check_int "six dialects, six digests" 6
    (List.length (List.sort_uniq compare digests));
  List.iter
    (fun h -> check_int "32 hex chars" 32 (String.length h))
    digests;
  (* Length-prefixing: distinct name lists must not collide after
     concatenation. *)
  check_bool "no concatenation collision" false
    (Service.Digest_key.equal
       (Service.Digest_key.of_config (Feature.Config.of_names [ "ab"; "c" ]))
       (Service.Digest_key.of_config (Feature.Config.of_names [ "a"; "bc" ])))

(* --- cache counters and LRU ------------------------------------------ *)

let test_counters_exact () =
  let cache = Service.Cache.create ~capacity:8 () in
  let tiny = (dialect "tinysql").Dialects.Dialect.config in
  let scql = (dialect "scql").Dialects.Dialect.config in
  ignore (generate_ok cache tiny);
  ignore (generate_ok cache tiny);
  ignore (generate_ok cache scql);
  ignore (generate_ok cache tiny);
  let s = Service.Cache.stats cache in
  check_int "lookups" 4 s.Service.Cache.lookups;
  check_int "hits" 2 s.Service.Cache.hits;
  check_int "misses" 2 s.Service.Cache.misses;
  check_int "hits + misses = lookups" s.Service.Cache.lookups
    (s.Service.Cache.hits + s.Service.Cache.misses);
  check_int "entries" 2 s.Service.Cache.entries;
  check_int "no evictions" 0 s.Service.Cache.evictions;
  Service.Cache.reset_stats cache;
  let s = Service.Cache.stats cache in
  check_int "reset lookups" 0 s.Service.Cache.lookups;
  check_int "reset keeps entries" 2 s.Service.Cache.entries

let test_errors_not_cached () =
  let cache = Service.Cache.create () in
  let bogus = Feature.Config.of_names [ "No Such Feature" ] in
  (match Service.Cache.generate cache bogus with
  | Ok _ -> Alcotest.fail "bogus config must not generate"
  | Error _ -> ());
  (match Service.Cache.generate cache bogus with
  | Ok _ -> Alcotest.fail "bogus config must not generate"
  | Error _ -> ());
  let s = Service.Cache.stats cache in
  check_int "two lookups" 2 s.Service.Cache.lookups;
  check_int "both misses (errors are not cached)" 2 s.Service.Cache.misses;
  check_int "nothing retained" 0 s.Service.Cache.entries

let test_lru_eviction () =
  let cache = Service.Cache.create ~capacity:2 () in
  let config name = (dialect name).Dialects.Dialect.config in
  ignore (generate_ok cache (config "minimal"));
  ignore (generate_ok cache (config "scql"));
  (* Touch minimal so scql becomes the least recently used entry... *)
  ignore (generate_ok cache (config "minimal"));
  (* ...then overflow: scql must be evicted, minimal retained. *)
  ignore (generate_ok cache (config "tinysql"));
  let s = Service.Cache.stats cache in
  check_int "one eviction" 1 s.Service.Cache.evictions;
  check_int "at capacity" 2 s.Service.Cache.entries;
  check_bool "minimal survived (recently used)" true
    (Service.Cache.mem cache (config "minimal"));
  check_bool "scql evicted (least recently used)" false
    (Service.Cache.mem cache (config "scql"));
  (* Re-requesting the evicted entry is a miss that regenerates. *)
  ignore (generate_ok cache (config "scql"));
  let s = Service.Cache.stats cache in
  check_int "regeneration counted as miss" 4 s.Service.Cache.misses;
  check_int "second eviction" 2 s.Service.Cache.evictions

(* --- cache equivalence ------------------------------------------------ *)

let corpus_for name =
  let static =
    match name with
    | "minimal" -> Corpus.minimal_accept @ Corpus.minimal_reject
    | "scql" -> Corpus.scql_accept @ Corpus.scql_reject
    | "tinysql" -> Corpus.tinysql_accept @ Corpus.tinysql_reject
    | "embedded" -> Corpus.embedded_accept @ Corpus.embedded_reject
    | "analytics" -> Corpus.analytics_accept @ Corpus.analytics_reject
    | _ -> Corpus.full_accept
  in
  static @ Corpus.always_reject
  @ (try List.assoc name Corpus.unselected with Not_found -> [])

let test_cache_equivalence () =
  (* One small cache holds all six dialects at once; for every dialect the
     warm-cache front-end and a freshly generated cold-path front-end must
     agree statement-for-statement on the static corpora plus a
     grammar-sampled corpus. This is what rules out cache-keying bugs: a
     digest collision would hand back some other dialect's parser, which
     disagrees on essentially every line below. *)
  let cache = Service.Cache.create ~capacity:8 () in
  List.iter
    (fun (d : Dialects.Dialect.t) ->
      ignore (generate_ok ~label:d.name cache d.config))
    Dialects.Dialect.all;
  List.iter
    (fun (d : Dialects.Dialect.t) ->
      let warm = generate_ok ~label:d.name cache d.config in
      let cold =
        match Core.generate_dialect d with
        | Ok g -> g
        | Error e -> Alcotest.failf "cold generate %s: %a" d.name Core.pp_error e
      in
      let sampled = Service.Sentences.sample ~count:40 ~seed:4242 cold in
      List.iter
        (fun sql ->
          check_bool
            (Printf.sprintf "%s warm/cold agree on: %s" d.name sql)
            (Core.accepts cold sql) (Core.accepts warm sql))
        (corpus_for d.name @ sampled))
    Dialects.Dialect.all;
  let s = Service.Cache.stats cache in
  check_int "warm pass was all hits" s.Service.Cache.lookups
    (s.Service.Cache.hits + s.Service.Cache.misses);
  check_int "six misses total" 6 s.Service.Cache.misses;
  check_int "six hits total" 6 s.Service.Cache.hits

(* --- sessions --------------------------------------------------------- *)

let session_for name =
  match
    Service.Session.of_cache ~label:name
      (Service.Cache.create ())
      (dialect name).Dialects.Dialect.config
  with
  | Ok s -> s
  | Error e -> Alcotest.failf "session %s: %a" name Core.pp_error e

let test_session_batch_stats () =
  let session = session_for "minimal" in
  let batch =
    Service.Session.parse_batch session
      [
        "SELECT a FROM t";                  (* ok: 4 tokens *)
        "SELECT DISTINCT a FROM t";         (* ok: 5 tokens *)
        "SELECT a FROM t GROUP BY a";       (* parse error at 'group' *)
        "SELECT a FROM";                    (* parse error at EOF *)
      ]
  in
  let s = batch.Service.Session.batch_stats in
  check_int "statements" 4 s.Service.Session.statements;
  check_int "accepted" 2 s.Service.Session.accepted;
  check_int "rejected" 2 s.Service.Session.rejected;
  check_int "tokens counted (EOF excluded)" (4 + 5 + 7 + 3)
    s.Service.Session.tokens;
  Alcotest.(check (list int))
    "items in order" [ 0; 1; 2; 3 ]
    (List.map
       (fun (i : Service.Session.item) -> i.Service.Session.index)
       batch.Service.Session.items);
  (match s.Service.Session.furthest_error with
  | None -> Alcotest.fail "furthest error must be reported"
  | Some (index, e) ->
    check_int "furthest failure is the GROUP BY statement" 2 index;
    check_bool "expected set non-empty" true (e.Parser_gen.Engine.expected <> []));
  ()

let test_session_totals_accumulate () =
  let session = session_for "tinysql" in
  let b1 = Service.Session.parse_batch session Corpus.tinysql_accept in
  let b2 = Service.Session.parse_batch session Corpus.tinysql_reject in
  let totals = Service.Session.totals session in
  check_int "totals statements"
    (b1.Service.Session.batch_stats.Service.Session.statements
    + b2.Service.Session.batch_stats.Service.Session.statements)
    totals.Service.Session.statements;
  check_int "totals accepted"
    (List.length Corpus.tinysql_accept)
    totals.Service.Session.accepted;
  check_int "totals tokens"
    (b1.Service.Session.batch_stats.Service.Session.tokens
    + b2.Service.Session.batch_stats.Service.Session.tokens)
    totals.Service.Session.tokens;
  check_bool "accumulated elapsed covers both batches" true
    (totals.Service.Session.elapsed
    >= b1.Service.Session.batch_stats.Service.Session.elapsed)

let test_batch_domains_deterministic () =
  (* Domain sharding is a pure scheduling decision: a 4-domain batch must
     be indistinguishable from the sequential run — same per-statement
     results in submission order, same aggregate counts, same furthest
     error — on a workload mixing accepts, rejects, and sampled
     sentences. *)
  let sequential = session_for "embedded" in
  let sharded = session_for "embedded" in
  let stmts =
    Corpus.embedded_accept @ Corpus.embedded_reject @ Corpus.always_reject
    @ Service.Sentences.sample ~count:30 ~seed:99
        (Service.Session.front_end sequential)
  in
  (* [~clamp:false] so the sharded path is genuinely exercised even on a
     single-core host, where the default clamp would collapse it to one
     domain. *)
  let b1 = Service.Session.parse_batch ~domains:1 sequential stmts in
  let b4 = Service.Session.parse_batch ~clamp:false ~domains:4 sharded stmts in
  List.iter2
    (fun (i1 : Service.Session.item) (i4 : Service.Session.item) ->
      check_int "same index" i1.Service.Session.index i4.Service.Session.index;
      Alcotest.(check string)
        "same statement" i1.Service.Session.sql i4.Service.Session.sql;
      check_int
        (Printf.sprintf "same token count: %s" i1.Service.Session.sql)
        i1.Service.Session.token_count i4.Service.Session.token_count;
      check_bool
        (Printf.sprintf "same result: %s" i1.Service.Session.sql)
        true
        (i1.Service.Session.result = i4.Service.Session.result))
    b1.Service.Session.items b4.Service.Session.items;
  let s1 = b1.Service.Session.batch_stats
  and s4 = b4.Service.Session.batch_stats in
  check_int "same statements" s1.Service.Session.statements
    s4.Service.Session.statements;
  check_int "same accepted" s1.Service.Session.accepted
    s4.Service.Session.accepted;
  check_int "same rejected" s1.Service.Session.rejected
    s4.Service.Session.rejected;
  check_int "same tokens" s1.Service.Session.tokens s4.Service.Session.tokens;
  check_bool "same furthest error" true
    (s1.Service.Session.furthest_error = s4.Service.Session.furthest_error);
  (* More domains than statements: workers are capped at the batch size. *)
  let b_over =
    Service.Session.parse_batch ~clamp:false ~domains:16 sharded
      [ "SELECT name FROM items"; "SELECT a FROM"; "DROP TABLE items" ]
  in
  check_int "oversubscribed batch parses everything" 3
    b_over.Service.Session.batch_stats.Service.Session.statements;
  check_int "oversubscribed batch accepts" 2
    b_over.Service.Session.batch_stats.Service.Session.accepted

let test_batch_domains_clamped () =
  (* By default a request for more domains than the runtime recommends is
     clamped (oversharding a small host only adds spawn and contention
     cost): the batch still parses everything, in submission order, with
     results identical to the sequential run, and [shards] records what
     actually ran. *)
  let reference = session_for "embedded" in
  let clamped = session_for "embedded" in
  let stmts = Corpus.embedded_accept @ Corpus.embedded_reject in
  let b1 = Service.Session.parse_batch ~domains:1 reference stmts in
  let b8 = Service.Session.parse_batch ~domains:8 clamped stmts in
  check_bool "shards never exceed the recommendation" true
    (b8.Service.Session.shards <= Domain.recommended_domain_count ());
  check_int "clamped batch parses everything"
    b1.Service.Session.batch_stats.Service.Session.statements
    b8.Service.Session.batch_stats.Service.Session.statements;
  List.iter2
    (fun (i1 : Service.Session.item) (i8 : Service.Session.item) ->
      check_int "order unchanged" i1.Service.Session.index
        i8.Service.Session.index;
      check_bool
        (Printf.sprintf "same result: %s" i1.Service.Session.sql)
        true
        (i1.Service.Session.result = i8.Service.Session.result))
    b1.Service.Session.items b8.Service.Session.items;
  (* Opting out keeps the requested shard count (capped by batch size). *)
  let unclamped =
    Service.Session.parse_batch ~clamp:false ~domains:8 clamped stmts
  in
  check_int "clamp:false honors the request" (min 8 (List.length stmts))
    unclamped.Service.Session.shards

let test_vm_session_equivalence () =
  (* A session parses on the VM; one pinned to the same front-end with its
     parser generated without dispatch (the pure memoized engine, no
     program) must return item-for-item identical results and token
     counts, on a workload mixing accepts, rejects, lexical failures, and
     sampled sentences — sharded and not. *)
  let cache = Service.Cache.create () in
  let config = (dialect "embedded").Dialects.Dialect.config in
  let vm =
    match Service.Session.of_cache ~label:"embedded" cache config with
    | Ok s -> s
    | Error e -> Alcotest.failf "session: %a" Core.pp_error e
  in
  let g = Service.Session.front_end vm in
  let memoized =
    match
      Parser_gen.Engine.generate ~dispatch:false
        ~interner:(Lexing_gen.Scanner.interner g.Core.scanner)
        (Parser_gen.Engine.grammar g.Core.parser)
    with
    | Ok parser -> Service.Session.create { g with Core.parser }
    | Error e -> Alcotest.failf "memoized: %a" Parser_gen.Engine.pp_gen_error e
  in
  let stmts =
    Corpus.embedded_accept @ Corpus.embedded_reject @ Corpus.always_reject
    @ Service.Sentences.sample ~count:30 ~seed:77
        (Service.Session.front_end vm)
  in
  let check_same label (bc : Service.Session.batch)
      (bv : Service.Session.batch) =
    List.iter2
      (fun (ic : Service.Session.item) (iv : Service.Session.item) ->
        check_int
          (Printf.sprintf "%s: same token count: %s" label
             ic.Service.Session.sql)
          ic.Service.Session.token_count iv.Service.Session.token_count;
        check_bool
          (Printf.sprintf "%s: same result: %s" label ic.Service.Session.sql)
          true
          (ic.Service.Session.result = iv.Service.Session.result))
      bc.Service.Session.items bv.Service.Session.items;
    check_bool
      (Printf.sprintf "%s: same furthest error" label)
      true
      (bc.Service.Session.batch_stats.Service.Session.furthest_error
      = bv.Service.Session.batch_stats.Service.Session.furthest_error)
  in
  check_same "sequential"
    (Service.Session.parse_batch memoized stmts)
    (Service.Session.parse_batch vm stmts);
  check_same "sharded"
    (Service.Session.parse_batch ~clamp:false ~domains:4 memoized stmts)
    (Service.Session.parse_batch ~clamp:false ~domains:4 vm stmts)

let test_session_script_split () =
  let session = session_for "minimal" in
  let batch =
    Service.Session.parse_script session
      "SELECT a FROM t; SELECT DISTINCT a FROM t;"
  in
  check_int "two statements" 2
    batch.Service.Session.batch_stats.Service.Session.statements;
  check_int "both accepted" 2
    batch.Service.Session.batch_stats.Service.Session.accepted

let suite =
  [
    Alcotest.test_case "digest is order-insensitive" `Quick
      test_digest_order_insensitive;
    Alcotest.test_case "digest discriminates configurations" `Quick
      test_digest_discriminates;
    Alcotest.test_case "counters are exact" `Quick test_counters_exact;
    Alcotest.test_case "errors are not cached" `Quick test_errors_not_cached;
    Alcotest.test_case "bounded LRU evicts least recently used" `Quick
      test_lru_eviction;
    Alcotest.test_case "warm and cold front-ends agree (all dialects)" `Quick
      test_cache_equivalence;
    Alcotest.test_case "batch stats" `Quick test_session_batch_stats;
    Alcotest.test_case "session totals accumulate" `Quick
      test_session_totals_accumulate;
    Alcotest.test_case "domain-sharded batches are deterministic" `Quick
      test_batch_domains_deterministic;
    Alcotest.test_case "domain requests are clamped by default" `Quick
      test_batch_domains_clamped;
    Alcotest.test_case "VM sessions are indistinguishable from memoized ones"
      `Quick test_vm_session_equivalence;
    Alcotest.test_case "script batches split on semicolons" `Quick
      test_session_script_split;
  ]

type 'a parsed = {
  index : int;
  sql : string;
  token_count : int;
  result : ('a, Core.error) result;
}

type item = Parser_gen.Cst.t parsed

type stats = {
  statements : int;
  accepted : int;
  rejected : int;
  tokens : int;
  elapsed : float;
  statements_per_second : float;
  tokens_per_second : float;
  furthest_error : (int * Parser_gen.Engine.parse_error) option;
}

(* Running counts of a batch, a stream or a session's whole life: the one
   place items become statistics. *)
type tally = {
  mutable n_statements : int;
  mutable n_accepted : int;
  mutable n_tokens : int;
  mutable spent : float;
  mutable furthest : (int * Parser_gen.Engine.parse_error) option;
}

type t = { front_end : Core.generated; totals : tally }

let tally () =
  { n_statements = 0; n_accepted = 0; n_tokens = 0; spent = 0.; furthest = None }

let create front_end = { front_end; totals = tally () }

let of_cache ?label cache config =
  Result.map create (Cache.generate ?label cache config)

let front_end t = t.front_end

type batch = {
  items : item list;
  batch_stats : stats;
  shards : int;
}

let further (a : (int * Parser_gen.Engine.parse_error) option) b =
  match (a, b) with
  | None, x | x, None -> x
  | Some (_, ea), Some (_, eb) ->
    if eb.Parser_gen.Engine.pos.Lexing_gen.Token.offset
       > ea.Parser_gen.Engine.pos.Lexing_gen.Token.offset
    then b
    else a

let count tally (item : _ parsed) =
  tally.n_statements <- tally.n_statements + 1;
  tally.n_tokens <- tally.n_tokens + item.token_count;
  match item.result with
  | Ok _ -> tally.n_accepted <- tally.n_accepted + 1
  | Error (Core.Parse_error e) ->
    tally.furthest <- further tally.furthest (Some (item.index, e))
  | Error _ -> ()

let stats_of tally =
  let statements = tally.n_statements and tokens = tally.n_tokens in
  let elapsed = tally.spent in
  let statements_per_second, tokens_per_second =
    if elapsed > 1e-9 then (float statements /. elapsed, float tokens /. elapsed)
    else (0., 0.)
  in
  {
    statements;
    accepted = tally.n_accepted;
    rejected = statements - tally.n_accepted;
    tokens;
    elapsed;
    statements_per_second;
    tokens_per_second;
    furthest_error = tally.furthest;
  }

(* A finished batch or stream: its statistics, also added to the
   session's totals. *)
let close t tally =
  let totals = t.totals in
  totals.n_statements <- totals.n_statements + tally.n_statements;
  totals.n_accepted <- totals.n_accepted + tally.n_accepted;
  totals.n_tokens <- totals.n_tokens + tally.n_tokens;
  totals.spent <- totals.spent +. tally.spent;
  totals.furthest <- further totals.furthest tally.furthest;
  stats_of tally

let totals t = stats_of t.totals

(* Wall-clock timing: [Sys.time] reports processor time, which misstates
   throughput and sums over workers when the batch is sharded across
   domains. *)
let now () = Unix.gettimeofday ()

let pp_stats ppf s =
  let pp_furthest ppf = function
    | None -> Fmt.string ppf "none"
    | Some (i, e) ->
      Fmt.pf ppf "statement %d, %a" i Parser_gen.Engine.pp_parse_error e
  in
  Fmt.pf ppf
    "%d statement(s): %d accepted, %d rejected; %d token(s) in %.3fms \
     (%.0f statements/s, %.0f tokens/s); furthest error: %a"
    s.statements s.accepted s.rejected s.tokens (s.elapsed *. 1e3)
    s.statements_per_second s.tokens_per_second pp_furthest s.furthest_error

(* Scan and parse one statement against the pinned front-end. [parse] is
   {!Core.parse_cst_counted} (the VM over the struct-of-arrays stream, no
   token records on the accept path) or {!Core.recognize_counted} (no
   tree at all). Safe under sharding because the stream arena and the
   VM's stacks are domain-local. *)
let parse_one parse front_end index sql =
  let token_count, result = parse front_end sql in
  { index; sql; token_count; result }

(* The one sequential path: each statement is parsed, timed and counted,
   then handed to [f] before the next is parsed, so nothing of it need
   outlive [f]. [elapsed] sums the parse spans only; whatever [f] does
   (rendering, writing) is not counted. *)
let iter_source t ~parse source f =
  let tally = tally () in
  source (fun sql ->
      let t0 = now () in
      let item = parse_one parse t.front_end tally.n_statements sql in
      tally.spent <- tally.spent +. (now () -. t0);
      count tally item;
      f item);
  close t tally

let each t ~parse sqls f = iter_source t ~parse (fun k -> List.iter k sqls) f

(* Shard statements across [domains] workers. The front-end is immutable
   after generation (interner, scanner tables and compiled rules are never
   written post-[create]), so sharing it across domains is safe. Indices
   are dealt round-robin for balance; each worker returns its own results
   and the merge reassembles original order, so the outcome is identical
   to the single-domain run. *)
let run_sharded front_end domains stmts =
  let n = Array.length stmts in
  let shard d =
    let rec go i acc =
      if i >= n then List.rev acc
      else
        go (i + domains)
          (parse_one Core.parse_cst_counted front_end i stmts.(i) :: acc)
    in
    go d []
  in
  let workers =
    List.init (domains - 1) (fun d -> Domain.spawn (fun () -> shard (d + 1)))
  in
  let mine = shard 0 in
  let shards = mine :: List.map Domain.join workers in
  let out = Array.make n None in
  List.iter (List.iter (fun (it : item) -> out.(it.index) <- Some it)) shards;
  Array.to_list
    (Array.map
       (function Some it -> it | None -> assert false (* every index dealt *))
       out)

let parse_batch ?(clamp = true) ?(domains = 1) t sqls =
  let n = List.length sqls in
  (* Oversharding a small host is strictly counterproductive (E16 recorded
     a 0.04x collapse at 4 domains on 1 core): unless the caller opts out,
     the requested shard count is clamped to what the runtime recommends. *)
  let domains =
    let available = Domain.recommended_domain_count () in
    if clamp && domains > available then begin
      Printf.eprintf
        "sqlpl: warning: %d domain(s) requested but the runtime recommends \
         %d; clamping\n\
         %!"
        domains available;
      available
    end
    else domains
  in
  let shards = if domains <= 1 || n < 2 then 1 else min domains n in
  if shards = 1 then begin
    let items = ref [] in
    let batch_stats =
      each t ~parse:Core.parse_cst_counted sqls (fun it -> items := it :: !items)
    in
    { items = List.rev !items; batch_stats; shards }
  end
  else begin
    let t0 = now () in
    let items = run_sharded t.front_end shards (Array.of_list sqls) in
    let tally = tally () in
    tally.spent <- now () -. t0;
    List.iter (count tally) items;
    { items; batch_stats = close t tally; shards }
  end

let parse_script ?clamp ?domains t script =
  parse_batch ?clamp ?domains t (Core.split_statements script)

(* Streaming intake: statements are pulled from [read] in fixed-size chunks
   and parsed one at a time, so an unbounded script
   runs at a memory ceiling of [chunk_size] plus the largest statement —
   nothing is batched, no statement list is materialized. [on_item] sees
   each item as it completes (its [sql] is the only live copy). *)
let parse_stream ?chunk_size ~parse ?(on_item = ignore) t ~read =
  iter_source t ~parse
    (fun k -> Core.fold_statements ?chunk_size ~read (fun () sql -> k sql) ())
    on_item

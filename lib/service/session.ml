type item = {
  index : int;
  sql : string;
  token_count : int;
  result : (Parser_gen.Cst.t, Core.error) result;
}

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

type t = {
  front_end : Core.generated;
  mutable acc_statements : int;
  mutable acc_accepted : int;
  mutable acc_tokens : int;
  mutable acc_elapsed : float;
  mutable acc_furthest : (int * Parser_gen.Engine.parse_error) option;
}

let create front_end =
  {
    front_end;
    acc_statements = 0;
    acc_accepted = 0;
    acc_tokens = 0;
    acc_elapsed = 0.;
    acc_furthest = None;
  }

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

let rates ~statements ~tokens elapsed =
  if elapsed > 1e-9 then (float statements /. elapsed, float tokens /. elapsed)
  else (0., 0.)

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

(* Scan and parse one statement against the pinned front-end
   ({!Core.parse_cst_counted}: the VM over the struct-of-arrays stream, no
   token records on the accept path). Safe under sharding because the
   stream arena and the VM's stacks are domain-local. *)
let parse_one front_end index sql =
  let token_count, result = Core.parse_cst_counted front_end sql in
  { index; sql; token_count; result }

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
      else go (i + domains) (parse_one front_end i stmts.(i) :: acc)
    in
    go d []
  in
  let workers =
    List.init (domains - 1) (fun d -> Domain.spawn (fun () -> shard (d + 1)))
  in
  let mine = shard 0 in
  let shards = mine :: List.map Domain.join workers in
  let out = Array.make n None in
  List.iter
    (List.iter (fun (it : item) -> out.(it.index) <- Some (it)))
    shards;
  Array.to_list
    (Array.map
       (function Some it -> it | None -> assert false (* every index dealt *))
       out)

let parse_batch ?(clamp = true) ?(domains = 1) t sqls =
  let stmts = Array.of_list sqls in
  let n = Array.length stmts in
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
  let t0 = now () in
  let items =
    if shards = 1 then
      List.init n (fun i -> parse_one t.front_end i stmts.(i))
    else run_sharded t.front_end shards stmts
  in
  let elapsed = now () -. t0 in
  let statements = n in
  let accepted =
    List.length (List.filter (fun i -> Result.is_ok i.result) items)
  in
  let tokens = List.fold_left (fun acc i -> acc + i.token_count) 0 items in
  let furthest_error =
    List.fold_left
      (fun acc i ->
        match i.result with
        | Error (Core.Parse_error e) -> further acc (Some (i.index, e))
        | _ -> acc)
      None items
  in
  let statements_per_second, tokens_per_second = rates ~statements ~tokens elapsed in
  let batch_stats =
    {
      statements;
      accepted;
      rejected = statements - accepted;
      tokens;
      elapsed;
      statements_per_second;
      tokens_per_second;
      furthest_error;
    }
  in
  t.acc_statements <- t.acc_statements + statements;
  t.acc_accepted <- t.acc_accepted + accepted;
  t.acc_tokens <- t.acc_tokens + tokens;
  t.acc_elapsed <- t.acc_elapsed +. elapsed;
  t.acc_furthest <- further t.acc_furthest furthest_error;
  { items; batch_stats; shards }

let parse_script ?clamp ?domains t script =
  parse_batch ?clamp ?domains t (Core.split_statements script)

(* Streaming intake: statements are pulled from [read] in fixed-size chunks
   and parsed one at a time, so an unbounded script
   runs at a memory ceiling of [chunk_size] plus the largest statement —
   nothing is batched, no statement list is materialized. [on_item] sees
   each item as it completes (its [sql] is the only live copy). *)
let parse_stream ?chunk_size ?on_item t ~read =
  let t0 = now () in
  let statements = ref 0 in
  let accepted = ref 0 in
  let tokens = ref 0 in
  let furthest = ref None in
  Core.fold_statements ?chunk_size ~read
    (fun () sql ->
      let index = !statements in
      let item = parse_one t.front_end index sql in
      incr statements;
      if Result.is_ok item.result then incr accepted;
      tokens := !tokens + item.token_count;
      (match item.result with
      | Error (Core.Parse_error e) ->
        furthest := further !furthest (Some (index, e))
      | _ -> ());
      match on_item with None -> () | Some f -> f item)
    ();
  let elapsed = now () -. t0 in
  let statements = !statements and accepted = !accepted and tokens = !tokens in
  let statements_per_second, tokens_per_second =
    rates ~statements ~tokens elapsed
  in
  let stats =
    {
      statements;
      accepted;
      rejected = statements - accepted;
      tokens;
      elapsed;
      statements_per_second;
      tokens_per_second;
      furthest_error = !furthest;
    }
  in
  t.acc_statements <- t.acc_statements + statements;
  t.acc_accepted <- t.acc_accepted + accepted;
  t.acc_tokens <- t.acc_tokens + tokens;
  t.acc_elapsed <- t.acc_elapsed +. elapsed;
  t.acc_furthest <- further t.acc_furthest !furthest;
  stats

let totals t =
  let statements_per_second, tokens_per_second =
    rates ~statements:t.acc_statements ~tokens:t.acc_tokens t.acc_elapsed
  in
  {
    statements = t.acc_statements;
    accepted = t.acc_accepted;
    rejected = t.acc_statements - t.acc_accepted;
    tokens = t.acc_tokens;
    elapsed = t.acc_elapsed;
    statements_per_second;
    tokens_per_second;
    furthest_error = t.acc_furthest;
  }

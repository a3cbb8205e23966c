(** Batched parse sessions.

    A session pins one generated front-end (scanner + parser) and runs
    batches of statements through it, so the compose+generate cost is paid
    once per configuration instead of once per statement. Each batch
    returns per-statement results plus aggregate statistics (token and
    statement throughput, furthest parse-error position); the session also
    accumulates the same statistics across all batches it has run
    ({!totals}). Every statement parses on the one production engine:
    batches through {!Core.parse_cst_counted}, and {!each} through the
    parse function its caller passes. {!each} is the one sequential path:
    it hands each statement's item to a callback before parsing the next,
    so a caller that consumes items as they come (the daemon rendering
    each parse's rows into its reply) never holds more than one tree.

    A batch can be sharded across OCaml 5 domains
    ([parse_batch ~domains:4]): the generated front-end is immutable after
    interning, so workers share it directly, and per-statement results are
    merged back into submission order — the outcome is bit-identical to the
    single-domain run, only faster. All timings are wall-clock
    ([Unix.gettimeofday]), so multi-domain rates reflect real elapsed
    time. *)

type t

val create : Core.generated -> t

val of_cache :
  ?label:string ->
  Cache.t ->
  Feature.Config.t ->
  (t, Core.error) result
(** Resolve the front-end through a {!Cache} and open a session on it. *)

val front_end : t -> Core.generated

type 'a parsed = {
  index : int;                   (** 0-based position within the batch *)
  sql : string;
  token_count : int;             (** 0 when scanning failed *)
  result : ('a, Core.error) result;
}
(** One statement's outcome: its tree, or [()] when it was only
    recognized. *)

type item = Parser_gen.Cst.t parsed

type stats = {
  statements : int;
  accepted : int;
  rejected : int;
  tokens : int;                  (** tokens scanned over accepted+rejected,
                                     excluding the EOF sentinel *)
  elapsed : float;
      (** seconds of wall-clock time spent parsing: the sum of the
          statements' parse spans, or the sharded wall time *)
  statements_per_second : float; (** 0 when [elapsed] is unmeasurably small *)
  tokens_per_second : float;
  furthest_error : (int * Parser_gen.Engine.parse_error) option;
      (** statement index and error of the parse failure whose position is
          furthest into its statement — the most informative rejection *)
}

val pp_stats : stats Fmt.t

type batch = {
  items : item list;
  batch_stats : stats;
  shards : int;  (** domains the batch actually ran on, after clamping *)
}

val each :
  t ->
  parse:(Core.generated -> string -> int * ('a, Core.error) result) ->
  string list ->
  ('a parsed -> unit) ->
  stats
(** [each t ~parse stmts f] scans and parses the statements one at a time
    with [parse] ({!Core.parse_rows_counted}, {!Core.parse_cst_counted},
    or {!Core.recognize_counted} when no tree is wanted) and hands each
    item to [f] before the next statement is parsed, so no item need
    outlive its call — and rows, which the next parse invalidates, are
    consumed in time. Failures don't
    stop the run; they are recorded per item and aggregated. [elapsed] sums
    the statements' parse spans: time spent in [f] is not counted. The
    statistics accumulate into {!totals}. *)

val parse_batch : ?clamp:bool -> ?domains:int -> t -> string list -> batch
(** {!each} with {!Core.parse_cst_counted}, collecting the items.

    [domains] (default [1]) shards the statements round-robin across that
    many domains ([Domain.spawn] workers, capped at the batch size). Items
    come back in submission order with results identical to the sequential
    run; [elapsed] and the derived rates measure the sharded wall time.

    By default a request exceeding [Domain.recommended_domain_count ()] is
    clamped to it with a warning on stderr — oversharding only adds spawn
    and contention cost. [~clamp:false] restores the unclamped behavior,
    so that tests can shard a batch on a single-core host; [shards] in the
    result records what actually ran. *)

val parse_script : ?clamp:bool -> ?domains:int -> t -> string -> batch
(** [parse_batch] over {!Core.split_statements} of a script. *)

val parse_stream :
  ?chunk_size:int ->
  parse:(Core.generated -> string -> int * ('a, Core.error) result) ->
  ?on_item:('a parsed -> unit) ->
  t ->
  read:(bytes -> int -> int -> int) ->
  stats
(** {!each} over a streamed script: statements are pulled from [read] (a
    [Unix.read]-style function, 0 at end of input) in [chunk_size]-byte
    chunks (default 64 KiB, see {!Core.fold_statements}) and parsed one at
    a time, so memory stays bounded by the chunk
    size plus the largest single statement — an unbounded script runs at a
    fixed memory ceiling. Statement splitting matches
    {!Core.split_statements} byte for byte. [on_item] observes each item
    as it completes; the item (and its [sql]) is not retained afterwards.
    [furthest_error] indexes statements in stream order. *)

val totals : t -> stats
(** Statistics accumulated over every batch run in this session. *)

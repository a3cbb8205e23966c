(** Configuration-keyed parser cache.

    [generate] memoizes the expensive half of the paper's pipeline — feature
    validation, fragment composition and LL(k) parser generation — keyed by
    the {!Digest_key} of the configuration. The cached value is the complete
    {!Core.generated} front-end (grammar, token set, scanner, parser —
    including the parser's compiled bytecode {!Parser_gen.Program}, built
    eagerly at generation time), which is immutable and safe to share
    between sessions: the parser engine keeps its memo tables per [parse]
    call, not per parser value.

    The cache is a bounded LRU: each hit refreshes the entry's recency and
    inserting into a full cache evicts the least recently used entry.
    Compose/generation {e errors} are never cached — an invalid
    configuration costs a validation run each time, and the counters only
    ever count successful products.

    Not thread-safe; confine a cache to one domain. *)

type t

val create : ?capacity:int -> unit -> t
(** [create ()] is an empty cache. [capacity] (default [32], clipped to at
    least [1]) bounds the number of retained front-ends. *)

val capacity : t -> int
val length : t -> int

val default : t
(** The process-wide shared cache ([capacity = 32]) through which the CLI
    resolves every selection, so all six shipped dialects (and repeated
    custom selections) are composed and generated at most once per
    process. *)

type stats = {
  capacity : int;
  entries : int;      (** front-ends currently retained *)
  lookups : int;      (** = hits + misses, always *)
  hits : int;
  misses : int;
  evictions : int;    (** LRU evictions, counted within [misses] inserts *)
}

val stats : t -> stats
val reset_stats : t -> unit
(** Zero the counters; retained entries are kept. *)

val pp_stats : stats Fmt.t

val generate :
  ?label:string -> t -> Feature.Config.t -> (Core.generated, Core.error) result
(** [generate cache config] is {!Core.generate}, memoized on
    [Digest_key.of_config config]. A hit returns the cached front-end
    (with its original label); a miss instantiates the configuration from
    the process-wide family artifact and, on success, inserts the
    result. *)

val generate_dialect :
  t -> Dialects.Dialect.t -> (Core.generated, Core.error) result

val find : t -> Feature.Config.t -> Core.generated option
(** Peek without counting a lookup or refreshing recency. *)

val find_hex : t -> string -> Core.generated option
(** Peek by hex digest — how the parser service resolves a client that
    pins its configuration by {!Digest_key} instead of re-sending the
    feature list. Like {!find}, counts nothing and refreshes nothing. *)

val mem : t -> Feature.Config.t -> bool

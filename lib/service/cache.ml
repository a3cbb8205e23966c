type stats = {
  capacity : int;
  entries : int;
  lookups : int;
  hits : int;
  misses : int;
  evictions : int;
}

type entry = {
  value : Core.generated;
  mutable stamp : int;  (** recency: larger = more recently used *)
}

type t = {
  cap : int;
  table : (Digest_key.t, entry) Hashtbl.t;
  mutable clock : int;
  mutable lookups : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(capacity = 32) () =
  {
    cap = max 1 capacity;
    table = Hashtbl.create 64;
    clock = 0;
    lookups = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let capacity t = t.cap
let length t = Hashtbl.length t.table
let default = create ()

let stats t =
  {
    capacity = t.cap;
    entries = Hashtbl.length t.table;
    lookups = t.lookups;
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
  }

let reset_stats t =
  t.lookups <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0

let pp_stats ppf s =
  Fmt.pf ppf
    "entries %d/%d, lookups %d (hits %d, misses %d, hit rate %.0f%%), \
     evictions %d"
    s.entries s.capacity s.lookups s.hits s.misses
    (if s.lookups = 0 then 0. else 100. *. float s.hits /. float s.lookups)
    s.evictions

let touch t entry =
  t.clock <- t.clock + 1;
  entry.stamp <- t.clock

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key entry acc ->
        match acc with
        | Some (_, oldest) when oldest.stamp <= entry.stamp -> acc
        | _ -> Some (key, entry))
      t.table None
  in
  match victim with
  | None -> ()
  | Some (key, _) ->
    Hashtbl.remove t.table key;
    t.evictions <- t.evictions + 1

let insert t key value =
  if Hashtbl.length t.table >= t.cap then evict_lru t;
  let entry = { value; stamp = 0 } in
  touch t entry;
  Hashtbl.replace t.table key entry

let generate ?label t config =
  let key = Digest_key.of_config config in
  t.lookups <- t.lookups + 1;
  match Hashtbl.find_opt t.table key with
  | Some entry ->
    t.hits <- t.hits + 1;
    touch t entry;
    Ok entry.value
  | None ->
    t.misses <- t.misses + 1;
    let result = Core.generate ?label config in
    Result.iter (fun g -> insert t key g) result;
    result

let generate_dialect t (d : Dialects.Dialect.t) =
  generate ~label:d.Dialects.Dialect.name t d.Dialects.Dialect.config

let find t config =
  Option.map
    (fun e -> e.value)
    (Hashtbl.find_opt t.table (Digest_key.of_config config))

let find_hex t hex =
  Hashtbl.fold
    (fun key entry acc ->
      match acc with
      | Some _ -> acc
      | None ->
        if String.equal (Digest_key.to_hex key) hex then Some entry.value
        else None)
    t.table None

let mem t config = find t config <> None

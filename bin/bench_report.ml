(* [sqlpl bench report]: merge the checked-in BENCH_*.json artifacts into
   one markdown trajectory — per experiment, per dialect, the throughput of
   every engine that experiment measured, plus a cross-experiment frontier
   table showing how the fastest engine moved as the pipeline grew
   (reference -> interned -> committed dispatch -> bytecode VM).

   The artifacts are written by [bench/main.ml] with plain [Printf], so the
   reader below is a deliberately small recursive-descent JSON parser — no
   dependency is worth pulling in for files we generate ourselves. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

(* --- parsing ------------------------------------------------------------ *)

type state = { src : string; mutable pos : int }

let peek s = if s.pos < String.length s.src then Some s.src.[s.pos] else None

let skip_ws s =
  while
    s.pos < String.length s.src
    && (match s.src.[s.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    s.pos <- s.pos + 1
  done

let expect s c =
  skip_ws s;
  match peek s with
  | Some d when d = c -> s.pos <- s.pos + 1
  | Some d -> raise (Bad (Printf.sprintf "expected %C, found %C at %d" c d s.pos))
  | None -> raise (Bad (Printf.sprintf "expected %C, found end of input" c))

let parse_string s =
  expect s '"';
  let b = Buffer.create 16 in
  let rec go () =
    if s.pos >= String.length s.src then raise (Bad "unterminated string")
    else
      match s.src.[s.pos] with
      | '"' -> s.pos <- s.pos + 1
      | '\\' ->
        if s.pos + 1 >= String.length s.src then raise (Bad "bad escape");
        (match s.src.[s.pos + 1] with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          (* Artifacts we write are ASCII; map the escape to '?' rather than
             decode surrogate pairs. *)
          if s.pos + 5 >= String.length s.src then raise (Bad "bad \\u");
          s.pos <- s.pos + 4;
          Buffer.add_char b '?'
        | c -> raise (Bad (Printf.sprintf "bad escape \\%C" c)));
        s.pos <- s.pos + 2;
        go ()
      | c ->
        Buffer.add_char b c;
        s.pos <- s.pos + 1;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number s =
  let start = s.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while s.pos < String.length s.src && is_num_char s.src.[s.pos] do
    s.pos <- s.pos + 1
  done;
  match float_of_string_opt (String.sub s.src start (s.pos - start)) with
  | Some f -> f
  | None -> raise (Bad (Printf.sprintf "bad number at %d" start))

let literal s word v =
  let n = String.length word in
  if
    s.pos + n <= String.length s.src
    && String.sub s.src s.pos n = word
  then begin
    s.pos <- s.pos + n;
    v
  end
  else raise (Bad (Printf.sprintf "bad literal at %d" s.pos))

let rec parse_value s =
  skip_ws s;
  match peek s with
  | Some '{' ->
    s.pos <- s.pos + 1;
    skip_ws s;
    if peek s = Some '}' then begin
      s.pos <- s.pos + 1;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws s;
        let key = parse_string s in
        expect s ':';
        let v = parse_value s in
        skip_ws s;
        match peek s with
        | Some ',' ->
          s.pos <- s.pos + 1;
          members ((key, v) :: acc)
        | Some '}' ->
          s.pos <- s.pos + 1;
          Obj (List.rev ((key, v) :: acc))
        | _ -> raise (Bad "expected , or } in object")
      in
      members []
    end
  | Some '[' ->
    s.pos <- s.pos + 1;
    skip_ws s;
    if peek s = Some ']' then begin
      s.pos <- s.pos + 1;
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value s in
        skip_ws s;
        match peek s with
        | Some ',' ->
          s.pos <- s.pos + 1;
          elements (v :: acc)
        | Some ']' ->
          s.pos <- s.pos + 1;
          Arr (List.rev (v :: acc))
        | _ -> raise (Bad "expected , or ] in array")
      in
      elements []
    end
  | Some '"' -> Str (parse_string s)
  | Some 't' -> literal s "true" (Bool true)
  | Some 'f' -> literal s "false" (Bool false)
  | Some 'n' -> literal s "null" Null
  | Some _ -> Num (parse_number s)
  | None -> raise (Bad "unexpected end of input")

let parse_file path =
  let src = In_channel.with_open_text path In_channel.input_all in
  let s = { src; pos = 0 } in
  let v = parse_value s in
  skip_ws s;
  v

(* --- extraction --------------------------------------------------------- *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
let as_str = function Some (Str s) -> Some s | _ -> None
let as_num = function Some (Num f) -> Some f | _ -> None
let as_arr = function Some (Arr l) -> l | _ -> []

(* One throughput measurement: experiment, dialect, engine label, rates. *)
type point = {
  experiment : string;
  dialect : string;
  engine : string;
  stmts_per_s : float option;
  tokens_per_s : float option;
}

let strip_suffix ~suffix s =
  if String.length s > String.length suffix
     && String.sub s (String.length s - String.length suffix)
          (String.length suffix)
        = suffix
  then Some (String.sub s 0 (String.length s - String.length suffix))
  else None

(* An engine is any field family [<engine>_tokens_per_s] /
   [<engine>_stmts_per_s] in a row object — the artifacts name engines in
   the fields, so new experiments join the report without code changes. *)
let points_of_row experiment row =
  match as_str (member "dialect" row) with
  | None -> []
  | Some dialect ->
    let fields = match row with Obj kvs -> kvs | _ -> [] in
    let engines =
      List.filter_map
        (fun (k, _) -> strip_suffix ~suffix:"_tokens_per_s" k)
        fields
    in
    List.map
      (fun engine ->
        {
          experiment;
          dialect;
          engine;
          stmts_per_s = as_num (member (engine ^ "_stmts_per_s") row);
          tokens_per_s = as_num (member (engine ^ "_tokens_per_s") row);
        })
      engines

(* --- schema validation ---------------------------------------------------

   Every known experiment id has a structural schema; an artifact that
   declares an unknown experiment, or a known one whose shape does not
   match, is skipped with a warning instead of contributing half-parsed
   rows to the trajectory. (A stale BENCH_e19.json from an abandoned
   experiment family once did exactly that.) *)

let has_num key row = as_num (member key row) <> None
let has_str key row = as_str (member key row) <> None

let nonempty_all key j ok =
  match member key j with
  | Some (Arr rows) -> rows <> [] && List.for_all ok rows
  | _ -> false

(* e16/e17/e18 rows: a dialect plus at least one engine field family. *)
let throughput_row row =
  has_str "dialect" row
  &&
  match row with
  | Obj kvs ->
    List.exists
      (fun (k, v) ->
        strip_suffix ~suffix:"_tokens_per_s" k <> None
        && match v with Num _ -> true | _ -> false)
      kvs
  | _ -> false

let validate experiment j =
  match experiment with
  | "e15" ->
    if
      nonempty_all "cache" j (fun r ->
          has_str "dialect" r && has_num "cold_ms" r && has_num "warm_ms" r)
      && nonempty_all "batch" j (fun r ->
             has_str "dialect" r && has_num "batched_stmts_per_s" r)
    then Ok ()
    else Error "expected \"cache\"/\"batch\" arrays of per-dialect timings"
  | "e16" | "e17" | "e18" ->
    if nonempty_all "rows" j throughput_row then Ok ()
    else Error "expected \"rows\" of {dialect, <engine>_tokens_per_s, ...}"
  | "e20" ->
    if
      nonempty_all "rows" j throughput_row
      && has_num "byte_scan_mb_per_s" j
      &&
      match member "stream" j with
      | Some stream ->
        has_num "bytes" stream && has_num "max_resident_kb" stream
      | None -> false
    then Ok ()
    else
      Error
        "expected e20 schema {rows: [{dialect, <engine>_tokens_per_s, \
         ...}], byte_scan_mb_per_s, stream: {bytes, max_resident_kb}}"
  | "e19" ->
    if
      has_num "workers" j && has_num "connections" j
      && nonempty_all "rows" j (fun r ->
             has_str "dialect" r && has_str "engine" r && has_num "p50_ms" r
             && has_num "p99_ms" r && has_num "qps" r)
    then Ok ()
    else
      Error
        "expected service schema {workers, connections, rows: [{dialect, \
         engine, p50_ms, p99_ms, qps}]}"
  | "e21" ->
    if
      has_num "family_build_ms" j
      && nonempty_all "rows" j (fun r ->
             has_str "dialect" r && has_num "cold_ms" r
             && has_num "family_ms" r && has_num "speedup" r)
    then Ok ()
    else
      Error
        "expected family schema {family_build_ms, rows: [{dialect, cold_ms, \
         family_ms, speedup}]}"
  | _ -> Error "unknown experiment"

(* The E19 service artifact measures latency and QPS, not tokens/s, so it
   gets its own row type and table instead of joining the frontier. *)
type service_row = {
  s_dialect : string;
  s_engine : string;
  s_p50_ms : float;
  s_p99_ms : float;
  s_qps : float;
  s_stmts_per_s : float option;
}

let service_of_row row =
  match
    ( as_str (member "dialect" row),
      as_str (member "engine" row),
      as_num (member "p50_ms" row),
      as_num (member "p99_ms" row),
      as_num (member "qps" row) )
  with
  | Some s_dialect, Some s_engine, Some s_p50_ms, Some s_p99_ms, Some s_qps ->
    Some
      {
        s_dialect;
        s_engine;
        s_p50_ms;
        s_p99_ms;
        s_qps;
        s_stmts_per_s = as_num (member "stmts_per_s" row);
      }
  | _ -> None

(* The E21 family artifact measures generation latency, not parse
   throughput: cold pipeline vs family instantiation per dialect. *)
type family_row = {
  f_dialect : string;
  f_cold_ms : float;
  f_family_ms : float;
  f_speedup : float;
}

let family_of_row row =
  match
    ( as_str (member "dialect" row),
      as_num (member "cold_ms" row),
      as_num (member "family_ms" row),
      as_num (member "speedup" row) )
  with
  | Some f_dialect, Some f_cold_ms, Some f_family_ms, Some f_speedup ->
    Some { f_dialect; f_cold_ms; f_family_ms; f_speedup }
  | _ -> None

let family_notes j =
  let build =
    match as_num (member "family_build_ms" j) with
    | Some ms ->
      [
        Printf.sprintf
          "Family artifact built once in %.2f ms, shared by every product."
          ms;
      ]
    | None -> []
  in
  let connects =
    List.filter_map
      (fun r ->
        match
          ( as_str (member "dialect" r),
            as_num (member "plain_ms" r),
            as_num (member "family_ms" r) )
        with
        | Some d, Some plain, Some fam ->
          Some (Printf.sprintf "%s %.1f → %.1f ms" d plain fam)
        | _ -> None)
      (as_arr (member "serve_cold_connect" j))
  in
  build
  @
  if connects = [] then []
  else
    [
      "Serve cold-connection latency (plain → family-backed cache): "
      ^ String.concat ", " connects
      ^ ".";
    ]

type artifact = {
  a_experiment : string;
  a_basis : string option;  (* what the rates measure, from the artifact *)
  a_points : point list;
  a_service : service_row list;
  a_family : family_row list;
  a_notes : string list;  (* extra lines under the experiment's table *)
}

(* The E20 streaming run is a single measurement (one corpus, one chunk
   size), so it renders as a note line instead of a table row. *)
let stream_note j =
  match member "stream" j with
  | Some stream -> (
    match
      (as_num (member "bytes" stream), as_num (member "max_resident_kb" stream))
    with
    | Some bytes, Some rss_kb ->
      let rate =
        match as_num (member "tokens_per_s" stream) with
        | Some r -> Printf.sprintf " at %.0f tokens/s" r
        | None -> ""
      in
      [
        Printf.sprintf
          "Streamed corpus: %.0f MB parsed%s with max resident memory %.0f \
           MB."
          (bytes /. 1e6) rate (rss_kb /. 1e3);
      ]
    | _ -> [])
  | None -> []

let artifact_of_file path =
  let skip msg = Error (Printf.sprintf "%s: %s" path msg) in
  match parse_file path with
  | exception Bad msg -> skip msg
  | j -> (
    match as_str (member "experiment" j) with
    | None -> skip "no \"experiment\" field"
    | Some experiment -> (
      match validate experiment j with
      | Error msg -> skip (Printf.sprintf "%s: %s" experiment msg)
      | Ok () ->
        let rows = as_arr (member "rows" j) in
        Ok
          {
            a_experiment = experiment;
            a_basis = as_str (member "basis" j);
            a_points = List.concat_map (points_of_row experiment) rows;
            a_service =
              (if experiment = "e19" then List.filter_map service_of_row rows
               else []);
            a_family =
              (if experiment = "e21" then List.filter_map family_of_row rows
               else []);
            a_notes =
              (if experiment = "e20" then stream_note j
               else if experiment = "e21" then family_notes j
               else []);
          }))

(* --- rendering ---------------------------------------------------------- *)

let rate ppf = function
  | None -> Fmt.pf ppf "—"
  | Some f -> Fmt.pf ppf "%.0f" f

let dedup xs =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

(* What an experiment's rates measure. Experiments that predate the basis
   field are parse-only (they time parsing of pre-scanned tokens); newer
   artifacts declare their basis themselves. *)
let basis_of ~bases experiment =
  match List.assoc_opt experiment bases with
  | Some (Some basis) -> basis
  | _ -> "parse-only (pre-scanned tokens)"

let render ppf ~sources ~experiments ~bases ~notes ~service ~family points =
  Fmt.pf ppf "# Benchmark trajectory@\n@\n";
  Fmt.pf ppf
    "Generated by `sqlpl bench report` from %s. Rates are end-of-run@\n\
     throughputs as recorded by each experiment; experiments measure on@\n\
     different bases (the frontier's basis row names each), so compare@\n\
     engines within a row's experiment, and read a dialect's row across@\n\
     experiments as the trajectory of the shipped configuration.@\n@\n"
    (String.concat ", " (List.map Filename.basename sources));
  (* Per-experiment tables. *)
  List.iter
    (fun experiment ->
      let mine = List.filter (fun p -> p.experiment = experiment) points in
      if mine <> [] then begin
        Fmt.pf ppf "## %s@\n@\n" experiment;
        Fmt.pf ppf "Basis: %s.@\n@\n" (basis_of ~bases experiment);
        Fmt.pf ppf "| dialect | engine | stmts/s | tokens/s |@\n";
        Fmt.pf ppf "|---|---|---:|---:|@\n";
        List.iter
          (fun p ->
            Fmt.pf ppf "| %s | %s | %a | %a |@\n" p.dialect p.engine rate
              p.stmts_per_s rate p.tokens_per_s)
          mine;
        Fmt.pf ppf "@\n";
        List.iter
          (fun note -> Fmt.pf ppf "%s@\n@\n" note)
          (match List.assoc_opt experiment notes with
          | Some ns -> ns
          | None -> [])
      end)
    experiments;
  (* The service experiment measures the wire, not the parser: latency
     percentiles and sustained QPS per connection pool, rendered as its
     own table rather than forced into the throughput frontier. *)
  if service <> [] then begin
    Fmt.pf ppf "## e19 (parser service under concurrent load)@\n@\n";
    Fmt.pf ppf "| dialect | engine | p50 ms | p99 ms | req/s | stmts/s |@\n";
    Fmt.pf ppf "|---|---|---:|---:|---:|---:|@\n";
    List.iter
      (fun r ->
        Fmt.pf ppf "| %s | %s | %.3f | %.3f | %.0f | %a |@\n" r.s_dialect
          r.s_engine r.s_p50_ms r.s_p99_ms r.s_qps rate r.s_stmts_per_s)
      service;
    Fmt.pf ppf "@\n"
  end;
  (* The family experiment measures generation latency (cold pipeline vs
     instantiation from the variability-aware artifact), so it too gets
     its own table instead of joining the throughput frontier. *)
  if family <> [] then begin
    Fmt.pf ppf "## e21 (family-based compilation)@\n@\n";
    Fmt.pf ppf "| dialect | cold ms | family ms | speedup |@\n";
    Fmt.pf ppf "|---|---:|---:|---:|@\n";
    List.iter
      (fun r ->
        Fmt.pf ppf "| %s | %.2f | %.2f | %.1fx |@\n" r.f_dialect r.f_cold_ms
          r.f_family_ms r.f_speedup)
      family;
    Fmt.pf ppf "@\n";
    List.iter
      (fun note -> Fmt.pf ppf "%s@\n@\n" note)
      (match List.assoc_opt "e21" notes with Some ns -> ns | None -> [])
  end;
  (* Frontier: per dialect, the best tokens/s any engine reached in each
     experiment. *)
  let dialects = dedup (List.map (fun p -> p.dialect) points) in
  let with_rows =
    List.filter
      (fun e -> List.exists (fun p -> p.experiment = e) points)
      experiments
  in
  if dialects <> [] && with_rows <> [] then begin
    Fmt.pf ppf "## Frontier (best tokens/s per experiment)@\n@\n";
    Fmt.pf ppf "| dialect |%s@\n"
      (String.concat ""
         (List.map (fun e -> Printf.sprintf " %s |" e) with_rows));
    Fmt.pf ppf "|---|%s@\n"
      (String.concat "" (List.map (fun _ -> "---:|") with_rows));
    (* The basis row makes the bases explicit instead of mixing parse-only
       and scan+parse rates silently: rates in one column are comparable,
       rates across columns only after reading this row. *)
    Fmt.pf ppf "| *basis* |%s@\n"
      (String.concat ""
         (List.map
            (fun e -> Printf.sprintf " *%s* |" (basis_of ~bases e))
            with_rows));
    List.iter
      (fun dialect ->
        Fmt.pf ppf "| %s |" dialect;
        List.iter
          (fun e ->
            let best =
              List.fold_left
                (fun acc p ->
                  if p.experiment = e && p.dialect = dialect then
                    match (p.tokens_per_s, acc) with
                    | Some f, Some b -> Some (max f b)
                    | Some f, None -> Some f
                    | None, _ -> acc
                  else acc)
                None points
            in
            Fmt.pf ppf " %a |" rate best)
          with_rows;
        Fmt.pf ppf "@\n")
      dialects;
    Fmt.pf ppf "@\n"
  end

let run ?(strict = false) ~dir ~output () =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 6
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  if files = [] then Error (Printf.sprintf "no BENCH_*.json files in %s" dir)
  else begin
    let artifacts, bad =
      List.fold_left
        (fun (ok, bad) path ->
          match artifact_of_file path with
          | Ok a -> (a :: ok, bad)
          | Error msg -> (ok, msg :: bad))
        ([], []) files
    in
    let artifacts = List.rev artifacts and bad = List.rev bad in
    (* Under [--strict] a schema-mismatched artifact fails the whole report
       (the CI posture: a drifted artifact is a bug, not noise); otherwise
       it is skipped with a warning, so a half-regenerated checkout still
       renders what it has. *)
    if strict && bad <> [] then
      Error
        (Printf.sprintf "invalid artifact(s):\n  %s"
           (String.concat "\n  " bad))
    else begin
      List.iter
        (fun msg -> Printf.eprintf "sqlpl: warning: skipping %s\n%!" msg)
        bad;
      let experiments = List.map (fun a -> a.a_experiment) artifacts in
      let bases = List.map (fun a -> (a.a_experiment, a.a_basis)) artifacts in
      let notes = List.map (fun a -> (a.a_experiment, a.a_notes)) artifacts in
      let points = List.concat_map (fun a -> a.a_points) artifacts in
      let service = List.concat_map (fun a -> a.a_service) artifacts in
      let family = List.concat_map (fun a -> a.a_family) artifacts in
      let doc =
        Fmt.str "%a"
          (fun ppf () ->
            render ppf ~sources:files ~experiments ~bases ~notes ~service
              ~family points)
          ()
      in
      (match output with
      | None -> print_string doc
      | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc doc));
      Ok ()
    end
  end

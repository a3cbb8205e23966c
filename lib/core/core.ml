type generated = {
  label : string;
  config : Feature.Config.t;
  grammar : Grammar.Cfg.t;
  tokens : Lexing_gen.Spec.set;
  scanner : Lexing_gen.Scanner.t;
  parser : Parser_gen.Engine.t;
  sequence : string list;
}

type error =
  | Compose_error of Compose.Composer.error
  | Generation_error of Parser_gen.Engine.gen_error
  | Lex_error of Lexing_gen.Scanner.error
  | Parse_error of Parser_gen.Engine.parse_error
  | Lowering_error of Lower.error
  | Execution_error of string

let pp_error ppf = function
  | Compose_error e -> Compose.Composer.pp_error ppf e
  | Generation_error e -> Parser_gen.Engine.pp_gen_error ppf e
  | Lex_error e -> Lexing_gen.Scanner.pp_error ppf e
  | Parse_error e -> Parser_gen.Engine.pp_parse_error ppf e
  | Lowering_error e -> Lower.pp_error ppf e
  | Execution_error msg -> Fmt.pf ppf "execution error: %s" msg

let ( let* ) = Result.bind

(* The family artifact is process-wide and built on first use: the SQL
   product line has exactly one model/registry, so one variability-aware
   compilation serves every configuration the process will ever see. It
   is built once under a lock, so domains that generate concurrently
   before anything has built it wait for one build instead of racing. *)
let artifact = ref None
let artifact_lock = Mutex.create ()

let family () =
  Mutex.protect artifact_lock @@ fun () ->
  match !artifact with
  | Some fam -> fam
  | None ->
    let fam =
      Family.build ~start:Sql.Model.start_symbol Sql.Model.model
        Sql.Model.registry
    in
    artifact := Some fam;
    fam

let family_stats () =
  Option.map Family.stats (Mutex.protect artifact_lock (fun () -> !artifact))

let generate ?(label = "custom") config =
  let fam = family () in
  let* out =
    Result.map_error (fun e -> Compose_error e) (Family.instantiate fam config)
  in
  Family.time_specialize fam @@ fun () ->
  (* One interner spans scanner and parser, so the parser trusts the
     [kind_id] stamped on every token without re-hashing kind strings. *)
  let scanner = Lexing_gen.Scanner.create out.Compose.Composer.tokens in
  (* The engine runs on the left-factored grammar (same language, same
     CSTs, more committed dispatch points); the composed grammar is what
     [grammar] exposes for reports, printing and code emission. *)
  let factored, _ = Grammar.Factor.normalize out.Compose.Composer.grammar in
  let* parser =
    Result.map_error
      (fun e -> Generation_error e)
      (Parser_gen.Engine.generate
         ~interner:(Lexing_gen.Scanner.interner scanner)
         factored)
  in
  Ok
    {
      label;
      config;
      grammar = out.Compose.Composer.grammar;
      tokens = out.Compose.Composer.tokens;
      scanner;
      parser;
      sequence = out.Compose.Composer.sequence;
    }

let generate_dialect (d : Dialects.Dialect.t) =
  generate ~label:d.Dialects.Dialect.name d.Dialects.Dialect.config

let scan_tokens g sql =
  Result.map_error
    (fun e -> Lex_error e)
    (Lexing_gen.Scanner.scan_tokens g.scanner sql)

let scan_soa g sql =
  Result.map_error
    (fun e -> Lex_error e)
    (Lexing_gen.Scanner.scan_soa g.scanner sql)

(* The production path: the bytecode VM over the SoA token stream, building
   rows; a CST is those rows materialized, its token records a chunk at a
   time. *)
let parse_rows_counted g sql =
  match scan_soa g sql with
  | Error e -> (0, Error e)
  | Ok soa ->
    ( Lexing_gen.Scanner.soa_count soa,
      Result.map_error
        (fun e -> Parse_error e)
        (Parser_gen.Engine.parse_rows g.parser ~scanner:g.scanner soa) )

let parse_rows g sql = snd (parse_rows_counted g sql)

let parse_cst_counted g sql =
  let n, rows = parse_rows_counted g sql in
  (n, Result.map Parser_gen.Rows.to_cst rows)

let parse_cst g sql = snd (parse_cst_counted g sql)

let recognize_counted g sql =
  match scan_soa g sql with
  | Error e -> (0, Error e)
  | Ok soa ->
    ( Lexing_gen.Scanner.soa_count soa,
      Result.map_error
        (fun e -> Parse_error e)
        (Parser_gen.Engine.recognize_soa g.parser ~scanner:g.scanner soa) )

let recognize g sql = snd (recognize_counted g sql)

let parse_statement g sql =
  let* cst = parse_cst g sql in
  Result.map_error (fun e -> Lowering_error e) (Lower.statement cst)

let accepts g sql = Result.is_ok (parse_rows g sql)
let dispatch_summary g = Parser_gen.Engine.summary g.parser

type session = {
  front_end : generated;
  db : Engine.Database.t;
}

let session front_end = { front_end; db = Engine.Database.create () }
let session_parser s = s.front_end
let database s = s.db

let run s sql =
  let* stmt = parse_statement s.front_end sql in
  Result.map_error (fun m -> Execution_error m) (Engine.Database.execute s.db stmt)

let run_prepared s sql values =
  let* stmt = parse_statement s.front_end sql in
  let* bound =
    Result.map_error (fun m -> Execution_error m) (Engine.Params.bind stmt values)
  in
  Result.map_error (fun m -> Execution_error m) (Engine.Database.execute s.db bound)

(* Statement splitting: one state machine, shared by the whole-string and
   the streaming splitter, that lexes exactly as far as [Scanner.scan_step]
   must to tell a top-level [;] from one inside a string literal
   (['...'], with [''] as two toggles), a quoted identifier (["..."]), a
   [--] line comment or a [/* */] block comment. A statement holding
   nothing but whitespace and comments is dropped. *)
type split_state =
  | Code
  | Dash  (* ['-'] in code: a line comment if the next byte is ['-'] *)
  | Slash  (* ['/'] in code: a block comment if the next byte is ['*'] *)
  | Squote
  | Dquote
  | Line_comment
  | Block_comment
  | Block_star  (* ['*'] inside a block comment *)

type splitter = {
  mutable state : split_state;
  mutable has_code : bool;
      (* the pending statement has a byte outside whitespace and comments *)
}

(* Advance over [s.[i .. n-1]]: the index of the first top-level [;], or
   [n] when the range ends inside the statement. The state carries over to
   the next call, so a range may end anywhere — inside a comment opener
   included. *)
let split_scan sp s i n =
  let rec go st code i =
    if i >= n then begin
      sp.state <- st;
      sp.has_code <- code;
      n
    end
    else
      let c = String.unsafe_get s i in
      match st with
      | Code -> (
        match c with
        | ';' ->
          sp.state <- Code;
          sp.has_code <- code;
          i
        | '\'' -> go Squote true (i + 1)
        | '"' -> go Dquote true (i + 1)
        | '-' -> go Dash code (i + 1)
        | '/' -> go Slash code (i + 1)
        | ' ' | '\t' | '\r' | '\n' -> go Code code (i + 1)
        | _ -> go Code true (i + 1))
      (* a pending ['-'] or ['/'] not opening a comment was an operator:
         reread [c] as code *)
      | Dash -> if c = '-' then go Line_comment code (i + 1) else go Code true i
      | Slash -> if c = '*' then go Block_comment code (i + 1) else go Code true i
      | Squote -> go (if c = '\'' then Code else Squote) code (i + 1)
      | Dquote -> go (if c = '"' then Code else Dquote) code (i + 1)
      | Line_comment -> go (if c = '\n' then Code else Line_comment) code (i + 1)
      | Block_comment ->
        go (if c = '*' then Block_star else Block_comment) code (i + 1)
      | Block_star ->
        go
          (if c = '/' then Code else if c = '*' then Block_star else Block_comment)
          code (i + 1)
  in
  go sp.state sp.has_code i

(* Whether the statement ending here (at a [;] or at end of input) is
   kept; resets the flag for the next one. *)
let split_take sp ~at_end =
  if at_end && (sp.state = Dash || sp.state = Slash) then sp.has_code <- true;
  let keep = sp.has_code in
  sp.has_code <- false;
  keep

let split_statements text =
  let n = String.length text in
  let sp = { state = Code; has_code = false } in
  let rec go start acc =
    let j = split_scan sp text start n in
    let at_end = j >= n in
    let acc =
      if split_take sp ~at_end then String.sub text start (j - start) :: acc
      else acc
    in
    if at_end then List.rev acc else go (j + 1) acc
  in
  go 0 []

(* Streaming view of [split_statements]: consume input in fixed-size chunks
   from [read] and fold over completed statements without ever materializing
   the whole script. The splitter state carries across chunk boundaries, so
   a streamed script yields exactly the statement list reading the whole
   file would. Memory stays bounded by [chunk_size] plus the largest single
   statement (the carry-over buffer). *)
let fold_statements ?(chunk_size = 65536) ~read f acc =
  if chunk_size <= 0 then
    invalid_arg "Core.fold_statements: chunk_size must be positive";
  let chunk = Bytes.create chunk_size in
  let buf = Buffer.create 256 in
  let sp = { state = Code; has_code = false } in
  let acc = ref acc in
  let emit ~at_end =
    let stmt = Buffer.contents buf in
    Buffer.clear buf;
    if split_take sp ~at_end then acc := f !acc stmt
  in
  let rec drain () =
    let n = read chunk 0 chunk_size in
    if n > 0 then begin
      (* scanned in place: every byte kept is copied into [buf] before the
         next [read] reuses [chunk] *)
      let s = Bytes.unsafe_to_string chunk in
      let rec go i =
        let j = split_scan sp s i n in
        Buffer.add_substring buf s i (j - i);
        if j < n then begin
          emit ~at_end:false;
          go (j + 1)
        end
      in
      go 0;
      drain ()
    end
  in
  drain ();
  emit ~at_end:true;
  !acc

let run_script s statements =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | sql :: rest ->
      let* outcome = run s sql in
      go (outcome :: acc) rest
  in
  go [] statements

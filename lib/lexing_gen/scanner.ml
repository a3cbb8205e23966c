type kinded = {
  k_name : string;
  k_id : int;
}

type t = {
  interner : Interner.t;
  keywords : kinded Ci_map.t; (* case-insensitive, probed on input substrings *)
  (* Punct dispatch: literals bucketed by first character, longest first
     within a bucket, so matching probes only literals that can start here
     instead of scanning the whole punct list. *)
  puncts : (string * kinded) list array; (* 256 buckets *)
  punct_count : int;
  ident_kind : kinded option;
  integer_kind : kinded option;
  decimal_kind : kinded option;
  string_kind : kinded option;
  quoted_ident_kind : kinded option;
  canon : string array;
      (* kind id -> the text a token of that kind most often has: a
         punctuation literal, a keyword's upper-case spelling, or [""] *)
}

let create ?interner set =
  let interner =
    match interner with
    | Some i ->
      List.iter
        (fun (name, _) ->
          if not (Interner.mem i name) then
            invalid_arg
              (Printf.sprintf
                 "Scanner.create: terminal %S is not covered by the supplied \
                  interner"
                 name))
        set;
      i
    | None -> Interner.of_names (List.map fst set)
  in
  let kinded name =
    match Interner.id_opt interner name with
    | Some k_id -> { k_name = name; k_id }
    | None -> assert false (* covered above / by construction *)
  in
  let keywords =
    Ci_map.of_list
      (List.map (fun (spelling, name) -> (spelling, kinded name)) (Spec.keywords set))
  in
  let punct_list = Spec.puncts set in
  let puncts = Array.make 256 [] in
  (* Reversed insertion keeps each bucket in [Spec.puncts] order, which is
     longest-literal first — the order longest-match needs. *)
  List.iter
    (fun (literal, name) ->
      let c = Char.code literal.[0] in
      puncts.(c) <- (literal, kinded name) :: puncts.(c))
    (List.rev punct_list);
  let class_kind cls = Option.map kinded (List.assoc_opt cls (Spec.classes set)) in
  let canon = Array.make (Interner.size interner) "" in
  List.iter
    (fun (spelling, name) ->
      canon.((kinded name).k_id) <- String.uppercase_ascii spelling)
    (Spec.keywords set);
  List.iter (fun (literal, name) -> canon.((kinded name).k_id) <- literal) punct_list;
  {
    interner;
    keywords;
    puncts;
    punct_count = List.length punct_list;
    ident_kind = class_kind Spec.Identifier;
    integer_kind = class_kind Spec.Unsigned_integer;
    decimal_kind = class_kind Spec.Decimal_number;
    string_kind = class_kind Spec.String_literal;
    quoted_ident_kind = class_kind Spec.Quoted_identifier;
    canon;
  }

let interner t = t.interner
let keyword_count t = Ci_map.length t.keywords
let punct_count t = t.punct_count

type error = {
  pos : Token.position;
  message : string;
}

let pp_error ppf e =
  Fmt.pf ppf "lexical error at %a: %s" Token.pp_position e.pos e.message

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_ident_start c || is_digit c

exception Lex_error of error

(* Struct-of-arrays token stream. One scan fills three parallel int arrays
   (kind id, start offset, stop offset) plus a newline-offset index; no
   [Token.t] record, no [text] string, no position arithmetic happens until a
   token is actually materialized (at a CST leaf or an error edge). The
   arrays live in a per-domain arena (below) and are reused scan after scan,
   so the accept path performs zero per-token allocation. *)
type soa = {
  mutable src : string;
  mutable kind_ids : int array; (* slot [count] holds the EOF sentinel *)
  mutable starts : int array;
  mutable stops : int array;
  mutable count : int;          (* number of real tokens, excluding EOF *)
  mutable newlines : int array; (* offsets of every '\n', ascending *)
  mutable nl_count : int;
}

let soa_count soa = soa.count

let fresh_soa () =
  {
    src = "";
    kind_ids = Array.make 64 0;
    starts = Array.make 64 0;
    stops = Array.make 64 0;
    count = 0;
    newlines = Array.make 16 0;
    nl_count = 0;
  }

(* Arena: the SoA buffers plus the scratch buffer shared by every
   string-literal materialization on this domain (one [Buffer] total instead
   of a [Buffer.create 16] per literal). Reused across scans; a scan
   invalidates the previous [soa] of the same domain. *)
let arena : (soa * Buffer.t) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (fresh_soa (), Buffer.create 64))

(* --- the scanning core, one token at a time -----------------------------

   Every helper below is a toplevel function taking its context explicitly
   ([t], the destination [soa], the [input] string and its length [n]) so
   that the per-token path builds no closures. [scan_soa] calls
   [scan_step] once per token; a lexical error raises [Lex_error], which
   [scan_soa] turns into its [Error] result. *)

(* Error positions mirror the historical scanner exactly: the line/bol
   counters as of the failure point, even when the reported offset lies
   before newlines already consumed (e.g. an unterminated block comment
   reports the comment's start offset with the line count of its end). *)
let lex_fail soa offset message =
  let bol =
    if soa.nl_count = 0 then 0 else soa.newlines.(soa.nl_count - 1) + 1
  in
  let pos =
    { Token.line = soa.nl_count + 1; column = offset - bol + 1; offset }
  in
  raise (Lex_error { pos; message })

let record_newline soa offset =
  let cap = Array.length soa.newlines in
  if soa.nl_count = cap then begin
    let bigger = Array.make (2 * cap) 0 in
    Array.blit soa.newlines 0 bigger 0 cap;
    soa.newlines <- bigger
  end;
  soa.newlines.(soa.nl_count) <- offset;
  soa.nl_count <- soa.nl_count + 1

let emit soa (k : kinded) start stop =
  let cap = Array.length soa.kind_ids in
  (* Keep one slot of headroom for the EOF sentinel. *)
  if soa.count + 1 >= cap then begin
    let grow a =
      let bigger = Array.make (2 * cap) 0 in
      Array.blit a 0 bigger 0 cap;
      bigger
    in
    soa.kind_ids <- grow soa.kind_ids;
    soa.starts <- grow soa.starts;
    soa.stops <- grow soa.stops
  end;
  soa.kind_ids.(soa.count) <- k.k_id;
  soa.starts.(soa.count) <- start;
  soa.stops.(soa.count) <- stop;
  soa.count <- soa.count + 1

let rec skip_block_comment soa input n i start =
  if i + 1 >= n then lex_fail soa start "unterminated block comment"
  else if input.[i] = '*' && input.[i + 1] = '/' then i + 2
  else begin
    if input.[i] = '\n' then record_newline soa i;
    skip_block_comment soa input n (i + 1) start
  end

(* Hot paths below avoid per-token allocation: extents are found by
   tail-recursive scans over argument ints (no refs, no options, no
   closures), and keyword probes go through the index-returning
   [Ci_map.find_idx]. *)
let rec ident_end input n j =
  if j < n && is_ident_char (String.unsafe_get input j) then
    ident_end input n (j + 1)
  else j

let scan_ident t soa input n i =
  let j = ident_end input n (i + 1) in
  (match Ci_map.find_idx t.keywords input i j with
   | -1 -> (
     match t.ident_kind with
     | Some k -> emit soa k i j
     | None ->
       lex_fail soa i
         (Printf.sprintf "unexpected word %S (identifiers not enabled)"
            (String.sub input i (j - i))))
   | slot -> emit soa (Ci_map.value t.keywords slot) i j);
  j

let scan_number t soa input n i =
  let j = ref i in
  while !j < n && is_digit input.[!j] do incr j done;
  let decimal = ref false in
  if !j < n && input.[!j] = '.' && !j + 1 < n && is_digit input.[!j + 1] then begin
    decimal := true;
    incr j;
    while !j < n && is_digit input.[!j] do incr j done
  end;
  if
    !j < n
    && (input.[!j] = 'e' || input.[!j] = 'E')
    && (!j + 1 < n && (is_digit input.[!j + 1]
                      || ((input.[!j + 1] = '+' || input.[!j + 1] = '-')
                         && !j + 2 < n && is_digit input.[!j + 2])))
  then begin
    decimal := true;
    incr j;
    if input.[!j] = '+' || input.[!j] = '-' then incr j;
    while !j < n && is_digit input.[!j] do incr j done
  end;
  (match !decimal, t.decimal_kind, t.integer_kind with
   | true, Some k, _ -> emit soa k i !j
   | true, None, _ -> lex_fail soa i "decimal literals not enabled"
   | false, _, Some k -> emit soa k i !j
   | false, Some k, None -> emit soa k i !j
   | false, None, None -> lex_fail soa i "numeric literals not enabled");
  !j

let rec quoted_end soa input n quote what i j =
  if j >= n then lex_fail soa i ("unterminated " ^ what)
  else if String.unsafe_get input j = quote then
    if j + 1 < n && input.[j + 1] = quote then
      quoted_end soa input n quote what i (j + 2)
    else j + 1
  else begin
    if String.unsafe_get input j = '\n' then record_newline soa j;
    quoted_end soa input n quote what i (j + 1)
  end

let scan_quoted soa input n i ~quote ~kind_opt ~what =
  match kind_opt with
  | None -> lex_fail soa i (what ^ " not enabled")
  | Some k ->
    let j = quoted_end soa input n quote what i (i + 1) in
    emit soa k i j;
    j

(* Literal match at [i] without allocating a substring. *)
let rec literal_from input literal len i k =
  k >= len
  || (input.[i + k] = literal.[k] && literal_from input literal len i (k + 1))

let literal_at input n literal i =
  let len = String.length literal in
  i + len <= n && literal_from input literal len i 0

let rec punct_probe soa input n i = function
  | [] -> lex_fail soa i (Printf.sprintf "unexpected character %C" input.[i])
  | (literal, (k : kinded)) :: rest ->
    if literal_at input n literal i then begin
      emit soa k i (i + String.length literal);
      i + String.length literal
    end
    else punct_probe soa input n i rest

let scan_punct t soa input n i =
  punct_probe soa input n i t.puncts.(Char.code input.[i])

let rec line_comment_end input n j =
  if j < n && input.[j] <> '\n' then line_comment_end input n (j + 1) else j

(* Skip whitespace/comments from byte [i], then scan exactly one token into
   [soa]. Returns the byte offset just past the token, or [-1] when the
   input ends without another token. Raises [Lex_error] on bad input. *)
let rec scan_step t soa input n i =
  if i >= n then -1
  else
    let c = String.unsafe_get input i in
    if c = '\n' then begin
      record_newline soa i;
      scan_step t soa input n (i + 1)
    end
    else if c = ' ' || c = '\t' || c = '\r' then scan_step t soa input n (i + 1)
    else if c = '-' && i + 1 < n && input.[i + 1] = '-' then
      scan_step t soa input n (line_comment_end input n (i + 2))
    else if c = '/' && i + 1 < n && input.[i + 1] = '*' then
      scan_step t soa input n (skip_block_comment soa input n (i + 2) i)
    else if is_ident_start c then scan_ident t soa input n i
    else if is_digit c then scan_number t soa input n i
    else if c = '.' && i + 1 < n && is_digit input.[i + 1] then
      (* Leading-dot decimals: [.5]. *)
      scan_number t soa input n i
    else if c = '\'' then
      scan_quoted soa input n i ~quote:'\'' ~kind_opt:t.string_kind
        ~what:"string literal"
    else if c = '"' then
      scan_quoted soa input n i ~quote:'"' ~kind_opt:t.quoted_ident_kind
        ~what:"quoted identifier"
    else scan_punct t soa input n i

let scan_soa t input =
  let soa, _scratch = Domain.DLS.get arena in
  let n = String.length input in
  soa.src <- input;
  soa.count <- 0;
  soa.nl_count <- 0;
  let rec go i =
    let j = scan_step t soa input n i in
    if j >= 0 then go j
  in
  match go 0 with
  | () ->
    (* [emit] keeps one slot of headroom, so the EOF sentinel store never
       grows. *)
    soa.kind_ids.(soa.count) <- Interner.eof_id;
    soa.starts.(soa.count) <- n;
    soa.stops.(soa.count) <- n;
    Ok soa
  | exception Lex_error e -> Error e

(* ------------------------------------------------------------------ *)
(* On-demand materialization                                          *)
(* ------------------------------------------------------------------ *)

(* Number of '\n' offsets strictly below [off]. *)
let newlines_before soa off =
  let lo = ref 0 and hi = ref soa.nl_count in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if soa.newlines.(mid) < off then lo := mid + 1 else hi := mid
  done;
  !lo

let position_at soa off =
  let k = newlines_before soa off in
  let bol = if k = 0 then 0 else soa.newlines.(k - 1) + 1 in
  { Token.line = k + 1; column = off - bol + 1; offset = off }

(* Quoted-literal text: the bytes between the delimiters, with doubled
   delimiters collapsed — exactly what the scanner used to build eagerly.
   Allocation-free scan when the literal contains no doubled quote; a shared
   scratch buffer otherwise. *)
let quoted_text ~scratch src start stop ~quote =
  let lo = start + 1 and hi = stop - 1 in
  let rec has_doubled j =
    j < hi && (String.unsafe_get src j = quote || has_doubled (j + 1))
  in
  if not (has_doubled lo) then String.sub src lo (hi - lo)
  else begin
    Buffer.clear scratch;
    let rec go j =
      if j < hi then
        if src.[j] = quote then begin
          (* A quote char inside the literal body is always doubled. *)
          Buffer.add_char scratch quote;
          go (j + 2)
        end
        else begin
          Buffer.add_char scratch src.[j];
          go (j + 1)
        end
    in
    go lo;
    Buffer.contents scratch
  end

let quote_of t kind_id =
  match t.string_kind, t.quoted_ident_kind with
  | Some k, _ when k.k_id = kind_id -> '\''
  | _, Some k when k.k_id = kind_id -> '"'
  | _ -> '\000'

let rec same_bytes src j s k n =
  k >= n
  || String.unsafe_get src (j + k) = String.unsafe_get s k
     && same_bytes src j s (k + 1) n

(* A token spelled as its kind's canonical text shares that string: most
   keyword and punctuation tokens materialize without allocating one. *)
let text_at ?scratch t soa i =
  if i >= soa.count then "" (* EOF *)
  else
    let start = soa.starts.(i) and stop = soa.stops.(i) in
    match quote_of t soa.kind_ids.(i) with
    | '\000' ->
      let c = t.canon.(soa.kind_ids.(i)) and n = stop - start in
      if n > 0 && String.length c = n && same_bytes soa.src start c 0 n then c
      else String.sub soa.src start n
    | quote ->
      let scratch =
        match scratch with Some b -> b | None -> snd (Domain.DLS.get arena)
      in
      quoted_text ~scratch soa.src start stop ~quote

let text_of_soa t soa i = text_at t soa i

let token_of_soa t soa i =
  if i >= soa.count then Token.eof (position_at soa soa.starts.(soa.count))
  else
    {
      Token.kind = Interner.name t.interner soa.kind_ids.(i);
      kind_id = soa.kind_ids.(i);
      text = text_at t soa i;
      pos = position_at soa soa.starts.(i);
    }

(* Materialize tokens [lo .. hi - 1] into [dst] from slot 0: one binary
   search finds the first token's line, then the newline index is walked
   sequentially. *)
let fill_tokens t soa dst lo hi =
  let _soa0, scratch = Domain.DLS.get arena in
  let k = ref (newlines_before soa soa.starts.(lo)) in
  for i = lo to hi - 1 do
    let start = soa.starts.(i) in
    while !k < soa.nl_count && soa.newlines.(!k) < start do incr k done;
    let bol = if !k = 0 then 0 else soa.newlines.(!k - 1) + 1 in
    let pos = { Token.line = !k + 1; column = start - bol + 1; offset = start } in
    Array.unsafe_set dst (i - lo)
      (if i = soa.count then Token.eof pos
       else
         {
           Token.kind = Interner.name t.interner soa.kind_ids.(i);
           kind_id = soa.kind_ids.(i);
           text = text_at ~scratch t soa i;
           pos;
         })
  done

(* The placeholder is static, so [Array.make] allocates a stream longer than
   256 words straight in the major heap without first forcing a minor
   collection, as a young initial element would. *)
let tokens_of_soa t soa =
  let all = Array.make (soa.count + 1) Token.placeholder in
  fill_tokens t soa all 0 (soa.count + 1);
  all

let kind_name t soa i =
  if i <= soa.count then Interner.name t.interner soa.kind_ids.(i)
  else Token.eof_kind

let scan_tokens t input =
  Result.map (fun soa -> tokens_of_soa t soa) (scan_soa t input)

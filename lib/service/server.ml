(* The parser-service daemon. One acceptor domain deals connections onto a
   shared queue; [workers] worker domains each pop and serve one connection
   to completion — the same Domain.spawn fan-out as
   [Session.parse_batch ~domains], lifted from statements to connections.
   Everything the domains share (the front-end cache, counters, the live
   connection set) sits behind one mutex; the generated front-ends
   themselves are immutable and are parsed on lock-free. A reply is
   written as its request is parsed: each statement's outcome goes into
   the connection's writer before the next statement is parsed, so a
   worker holds at most one tree, and recognize requests and raw streams
   build none. *)

type stats = {
  connections : int;
  active : int;
  requests : int;
  wire_errors : int;
}

type t = {
  listen_fd : Unix.file_descr;
  addr : Wire.address;
  max_frame : int;
  stream : bool;  (* accept raw ['S'] streaming connections *)
  cache : Cache.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  pending : Unix.file_descr Queue.t;
  mutable live : Unix.file_descr list;  (* connections being served *)
  mutable stopping : bool;
  mutable stopped : bool;
  mutable connections : int;
  mutable active : int;
  mutable requests : int;
  mutable wire_errors : int;
  mutable acceptor : unit Domain.t option;
  mutable pool : unit Domain.t list;
}

let address t = t.addr
let cache t = t.cache

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      connections = t.connections;
      active = t.active;
      requests = t.requests;
      wire_errors = t.wire_errors;
    }
  in
  Mutex.unlock t.lock;
  s

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* --- plumbing ---------------------------------------------------------- *)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      let written = Unix.write_substring fd s off (n - off) in
      go (off + written)
  in
  go 0

(* Best-effort write of the frame in the connection's one writer: the peer
   may already be gone (mid-frame disconnect tests do exactly this); a
   failed courtesy error must never take the worker down. *)
let flush fd out =
  try
    Wire.output out (Unix.write fd);
    true
  with Unix.Unix_error _ | Sys_error _ -> false

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* --- per-connection protocol ------------------------------------------- *)

let outcome_of (item : _ Session.parsed) cst =
  match item.Session.result with
  | Ok x -> Wire.Accepted { tokens = item.Session.token_count; cst = cst x }
  | Error e -> Wire.Rejected (Wire.error_of_core ~query:item.Session.sql e)

(* The built-reply edge renders through the oracle printer, not the rows
   renderer the daemon uses, so replies checked against it are checked
   against an independent rendering. *)
let outcome_of_item mode item =
  outcome_of item (fun t ->
      match mode with
      | Wire.Cst -> Some (Wire.Text (Fmt.str "%a" Parser_gen.Cst.pp t))
      | Wire.Recognize -> None)

let reply_stats (s : Session.stats) =
  {
    Wire.statements = s.Session.statements;
    accepted = s.Session.accepted;
    rejected = s.Session.rejected;
    tokens = s.Session.tokens;
    elapsed_ns = Int64.of_float (s.Session.elapsed *. 1e9);
  }

(* Each statement is parsed and its outcome written into [out] before the
   next is parsed: its rows are rendered into the frame before the next
   parse reuses their arena, no [Cst.t] is built, and a recognized
   statement builds no row. *)
let reply_into session out (r : Wire.request) =
  Wire.encode_reply_into out ~id:r.Wire.id (fun emit ->
      reply_stats
        (match r.Wire.mode with
        | Wire.Cst ->
          Session.each session ~parse:Core.parse_rows_counted r.Wire.statements
            (fun item -> emit (outcome_of item (fun t -> Some (Wire.Rows t))))
        | Wire.Recognize ->
          Session.each session ~parse:Core.recognize_counted r.Wire.statements
            (fun item -> emit (outcome_of item (fun () -> None)))))

let resolve_hello t (h : Wire.hello) =
  let generate label config =
    match locked t (fun () -> Cache.generate ~label t.cache config) with
    | Ok g -> Ok g
    | Error e ->
      Error
        (Wire.error Wire.Invalid_config
           (Fmt.str "%s: %a" label Core.pp_error e))
  in
  match h.Wire.selection with
  | Wire.Dialect name -> (
    match Dialects.Dialect.find name with
    | Some d -> generate d.Dialects.Dialect.name d.Dialects.Dialect.config
    | None ->
      Error
        (Wire.error Wire.Unknown_dialect
           (Printf.sprintf "unknown dialect %S (known: %s)" name
              (String.concat ", "
                 (List.map
                    (fun (d : Dialects.Dialect.t) -> d.name)
                    Dialects.Dialect.all)))))
  | Wire.Features names ->
    generate "custom" (Sql.Model.close (Feature.Config.of_names names))
  | Wire.Digest hex -> (
    match locked t (fun () -> Cache.find_hex t.cache hex) with
    | Some g -> Ok g
    | None ->
      Error
        (Wire.error Wire.Unknown_digest
           (Printf.sprintf
              "no resident front-end has digest %S; hello with the dialect \
               or feature list first"
              hex)))

let count_error t = locked t (fun () -> t.wire_errors <- t.wire_errors + 1)

(* --- raw streaming mode ------------------------------------------------- *)

(* A streaming connection opens with ['S'] (no frame under 16 MiB can: its
   length prefix starts with [0x00]), then one header line
   [<dialect>\n], then unframed SQL bytes until the client shuts down its
   write side. The server pipes the bytes through
   {!Session.parse_stream} — fixed memory ceiling, statements split at
   top-level [;] exactly like {!Core.split_statements} — answering one line
   per statement as it completes, and a final [done] line with totals. *)

let stream_line_of_item (item : _ Session.parsed) =
  match item.Session.result with
  | Ok _ -> Printf.sprintf "ok %d\n" item.Session.token_count
  | Error e ->
    let flat =
      String.map
        (function '\n' -> ' ' | c -> c)
        (Fmt.str "%a" Core.pp_error e)
    in
    Printf.sprintf "err %s\n" flat

let stream_done_line (s : Session.stats) =
  Printf.sprintf "done %d %d %d\n" s.Session.statements s.Session.tokens
    s.Session.rejected

(* The raw stream's lines need only a verdict and a token count, so its
   statements are recognized: no tree is built. *)
let stream_lines session ~read ~write =
  Session.parse_stream session ~parse:Core.recognize_counted
    ~on_item:(fun item -> write (stream_line_of_item item))
    ~read

(* The header is read byte-wise: reading in chunks could swallow the first
   bytes of the SQL body. *)
let read_stream_header fd =
  let b = Buffer.create 32 in
  let one = Bytes.create 1 in
  let rec go () =
    match Unix.read fd one 0 1 with
    | 0 -> None
    | _ ->
      let c = Bytes.get one 0 in
      if c = '\n' then Some (Buffer.contents b)
      else if Buffer.length b >= 256 then None
      else begin
        Buffer.add_char b c;
        go ()
      end
    | exception Unix.Unix_error _ -> None
  in
  go ()

(* Hang up after a final error: shut the write side, so the client reads
   the error and then end of input, and drain what it already sent before
   the connection closes, since closing with unread bytes in the receive
   queue resets the connection and can destroy the error before the client
   reads it. Bounded, so a hostile endless stream cannot pin the worker. *)
let drain fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  let buf = Bytes.create 8192 in
  let rec go budget =
    if budget > 0 then
      match Unix.read fd buf 0 8192 with
      | 0 -> ()
      | n -> go (budget - n)
      | exception Unix.Unix_error _ -> ()
  in
  go (16 * 1024 * 1024)

let serve_stream t fd =
  let fail msg =
    (try write_all fd ("err " ^ msg ^ "\n")
     with Unix.Unix_error _ | Sys_error _ -> ());
    drain fd;
    count_error t
  in
  if not t.stream then
    fail "streaming disabled (start the server with --stream)"
  else
    match read_stream_header fd with
    | None -> fail "missing stream header line (<dialect>)"
    | Some header -> (
      match
        List.filter
          (fun s -> s <> "")
          (String.split_on_char ' ' (String.trim header))
      with
      | [ name ] -> (
        match Dialects.Dialect.find name with
        | None -> fail (Printf.sprintf "unknown dialect %S" name)
        | Some d -> (
          match
            locked t (fun () ->
                Cache.generate ~label:d.Dialects.Dialect.name t.cache
                  d.Dialects.Dialect.config)
          with
          | Error e -> fail (Fmt.str "%a" Core.pp_error e)
          | Ok g -> (
            let session = Session.create g in
            match
              stream_lines session
                ~read:(fun buf off len -> Unix.read fd buf off len)
                ~write:(write_all fd)
            with
            | stats ->
              locked t (fun () -> t.requests <- t.requests + 1);
              (try write_all fd (stream_done_line stats)
               with Unix.Unix_error _ | Sys_error _ -> ())
            | exception (Unix.Unix_error _ | Sys_error _) ->
              (* the peer vanished mid-stream *)
              count_error t)))
      | _ -> fail "stream header must be: <dialect>")

(* Serve one framed connection to completion. Every exit path is
   structured: the client either saw a [Reply]/[Pong] per frame, or one
   final [Error] explaining why the server is hanging up. The routing in
   [serve] consumed the connection's first byte, so it is pushed back in
   front of the {!Wire.reader}'s reads (the reader needs it: it is the
   first byte of the length prefix). Every frame the server sends is
   encoded into one writer, kept for the whole connection. *)
let serve_framed t fd ~first =
  let pushed_back = ref true in
  let reader =
    Wire.reader ~max_frame:t.max_frame (fun buf off len ->
        if !pushed_back then begin
          pushed_back := false;
          Bytes.set buf off first;
          1
        end
        else Unix.read fd buf off len)
  in
  let out = Wire.writer () in
  let send frame =
    Wire.encode_into out frame;
    flush fd out
  in
  let bail error =
    ignore (send (Wire.Error error));
    drain fd;
    count_error t
  in
  match Wire.read_frame reader with
  | Ok None -> () (* connected and left without a word *)
  | Error e -> bail e
  | Ok (Some (Wire.Hello hello)) -> (
    match resolve_hello t hello with
    | Error e -> bail e
    | Ok g ->
      let session = Session.create g in
      let ok =
        send
          (Wire.Hello_ok
             {
               Wire.digest =
                 Digest_key.to_hex (Digest_key.of_config g.Core.config);
               label = g.Core.label;
               features = Feature.Config.cardinal g.Core.config;
             })
      in
      let rec loop () =
        match Wire.read_frame reader with
        | Ok None -> ()
        | Error e -> bail e
        | Ok (Some frame) -> (
          match frame with
          | Wire.Request r ->
            (match reply_into session out r with
            | () -> ()
            | exception exn ->
              (* A poisoned statement must poison its request only: the
                 error frame replaces the partial reply in the writer. *)
              count_error t;
              Wire.encode_into out
                (Wire.Error
                   (Wire.error Wire.Internal
                      (Printf.sprintf "request %d failed: %s" r.Wire.id
                         (Printexc.to_string exn)))));
            locked t (fun () -> t.requests <- t.requests + 1);
            if flush fd out then loop ()
          | Wire.Ping payload -> if send (Wire.Pong payload) then loop ()
          | Wire.Bye -> ()
          | Wire.Hello _ | Wire.Hello_ok _ | Wire.Reply _ | Wire.Error _
          | Wire.Pong _ ->
            bail
              (Wire.error Wire.Unsupported
                 (Fmt.str "unexpected %a" Wire.pp_frame frame)))
      in
      if ok then loop ())
  | Ok (Some frame) ->
    bail
      (Wire.error Wire.Bad_hello
         (Fmt.str "expected hello, got %a" Wire.pp_frame frame))

(* First-byte routing: ['S'] opens the raw streaming mode, anything else
   goes to the framed protocol, whose reader answers bytes that are not a
   frame with a structured error. *)
let serve t fd =
  let first = Bytes.create 1 in
  let got = try Unix.read fd first 0 1 with Unix.Unix_error _ -> 0 in
  if got = 0 then () (* connected and left without a word *)
  else if Bytes.get first 0 = 'S' then serve_stream t fd
  else serve_framed t fd ~first:(Bytes.get first 0)

(* --- pool -------------------------------------------------------------- *)

let worker t () =
  let rec next () =
    Mutex.lock t.lock;
    while Queue.is_empty t.pending && not t.stopping do
      Condition.wait t.nonempty t.lock
    done;
    if t.stopping then begin
      Mutex.unlock t.lock;
      ()
    end
    else begin
      let fd = Queue.pop t.pending in
      t.active <- t.active + 1;
      t.live <- fd :: t.live;
      Mutex.unlock t.lock;
      (try serve t fd with _ -> ());
      close_quietly fd;
      locked t (fun () ->
          t.active <- t.active - 1;
          t.live <- List.filter (fun fd' -> fd' != fd) t.live);
      next ()
    end
  in
  next ()

(* Poll-accept so shutdown is race-free: closing an fd another domain is
   blocked in [accept] on is not guaranteed to wake it, but a [select] with
   a short timeout re-checks the stopping flag on its own. *)
let acceptor t () =
  let rec loop () =
    if not (locked t (fun () -> t.stopping)) then
      match Unix.select [ t.listen_fd ] [] [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ -> () (* listener closed: shutting down *)
      | [], _, _ -> loop ()
      | _ :: _, _, _ -> (
        match Unix.accept ~cloexec:true t.listen_fd with
        | exception Unix.Unix_error _ -> ()
        | fd, _ ->
          Mutex.lock t.lock;
          if t.stopping then begin
            Mutex.unlock t.lock;
            close_quietly fd
          end
          else begin
            t.connections <- t.connections + 1;
            Queue.push fd t.pending;
            Condition.signal t.nonempty;
            Mutex.unlock t.lock;
            loop ()
          end)
  in
  loop ()

(* --- lifecycle ----------------------------------------------------------- *)

let bind_listener addr ~backlog =
  let protect fd f =
    match f () with
    | v -> Ok v
    | exception Unix.Unix_error (err, _, _) ->
      close_quietly fd;
      Error
        (Fmt.str "cannot listen on %a: %s" Wire.pp_address addr
           (Unix.error_message err))
  in
  match addr with
  | Wire.Tcp (host, port) ->
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    protect fd (fun () ->
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        let inet =
          try Unix.inet_addr_of_string host
          with Failure _ ->
            (Unix.gethostbyname host).Unix.h_addr_list.(0)
        in
        Unix.bind fd (Unix.ADDR_INET (inet, port));
        Unix.listen fd backlog;
        let bound =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> Wire.Tcp (host, p)
          | _ -> addr
        in
        (fd, bound))
  | Wire.Unix_socket path ->
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    protect fd (fun () ->
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd backlog;
        (fd, addr))

let start ?(workers = 4) ?(backlog = 64) ?(max_frame = Wire.default_max_frame)
    ?(stream = false) ?cache addr =
  (* A worker writing a reply into a connection the client already closed
     must see EPIPE, not die of SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  match bind_listener addr ~backlog with
  | Error _ as e -> e
  | Ok (listen_fd, bound) ->
    let t =
      {
        listen_fd;
        addr = bound;
        max_frame;
        stream;
        cache = (match cache with Some c -> c | None -> Cache.create ());
        lock = Mutex.create ();
        nonempty = Condition.create ();
        pending = Queue.create ();
        live = [];
        stopping = false;
        stopped = false;
        connections = 0;
        active = 0;
        requests = 0;
        wire_errors = 0;
        acceptor = None;
        pool = [];
      }
    in
    t.pool <- List.init (max 1 workers) (fun _ -> Domain.spawn (worker t));
    t.acceptor <- Some (Domain.spawn (acceptor t));
    Ok t

let stop t =
  let proceed =
    locked t (fun () ->
        if t.stopped then false
        else begin
          t.stopped <- true;
          t.stopping <- true;
          Condition.broadcast t.nonempty;
          true
        end)
  in
  if proceed then begin
    (* The acceptor re-checks the flag on its poll tick; workers blocked on
       the queue were woken by the broadcast, and workers mid-read get their
       connection shut down under them. *)
    Option.iter Domain.join t.acceptor;
    close_quietly t.listen_fd;
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      (locked t (fun () -> t.live));
    List.iter Domain.join t.pool;
    Queue.iter close_quietly t.pending;
    Queue.clear t.pending;
    match t.addr with
    | Wire.Unix_socket path ->
      (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    | Wire.Tcp _ -> ()
  end

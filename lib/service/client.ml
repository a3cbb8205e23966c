type t = {
  fd : Unix.file_descr;
  reader : Wire.reader;
  out : Wire.writer;
  mutable next_id : int;
  mutable closed : bool;
}

let io_error fmt =
  Printf.ksprintf (fun m -> Error (Wire.error Wire.Io m)) fmt

let write t frame =
  Wire.encode_into t.out frame;
  Wire.output t.out (Unix.write t.fd)

let send t frame =
  match write t frame with
  | () -> Ok ()
  | exception Unix.Unix_error (err, _, _) ->
    io_error "send failed: %s" (Unix.error_message err)

(* One round trip. The server answers every frame with exactly one frame,
   so reading is a simple blocking pull; a server-sent [Error] is the
   result, not an exception. *)
let roundtrip t frame =
  match send t frame with
  | Error _ as e -> e
  | Ok () -> (
    match Wire.read_frame t.reader with
    | Ok (Some f) -> Ok f
    | Ok None -> io_error "server closed the connection"
    | Error e -> Error e)

let dial addr =
  let domain, sockaddr =
    match addr with
    | Wire.Tcp (host, port) ->
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      (Unix.PF_INET, Unix.ADDR_INET (inet, port))
    | Wire.Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  match Unix.connect fd sockaddr with
  | () -> Ok fd
  | exception Unix.Unix_error (err, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    io_error "connect %s failed: %s"
      (Fmt.str "%a" Wire.pp_address addr)
      (Unix.error_message err)

let connect ?(client = "sqlpl-client") ?max_frame ~selection addr =
  match dial addr with
  | Error e -> Error e
  | Ok fd ->
    let t =
      {
        fd;
        reader =
          Wire.reader ?max_frame (fun buf off len -> Unix.read fd buf off len);
        out = Wire.writer ();
        next_id = 0;
        closed = false;
      }
    in
    let close_on_error r =
      match r with
      | Ok _ -> r
      | Error _ ->
        t.closed <- true;
        (try Unix.close fd with Unix.Unix_error _ -> ());
        r
    in
    close_on_error
      (match
         roundtrip t (Wire.Hello { Wire.client; selection })
       with
      | Error _ as e -> e
      | Ok (Wire.Hello_ok ok) -> Ok (t, ok)
      | Ok (Wire.Error e) -> Error e
      | Ok f ->
        Error
          (Wire.error Wire.Bad_frame
             (Fmt.str "expected hello_ok, got %a" Wire.pp_frame f)))

let request ?(mode = Wire.Cst) t statements =
  let id = t.next_id in
  t.next_id <- id + 1;
  match roundtrip t (Wire.Request { Wire.id; mode; statements }) with
  | Error _ as e -> e
  | Ok (Wire.Reply r) when r.Wire.id = id -> Ok r
  | Ok (Wire.Reply r) ->
    Error
      (Wire.error Wire.Bad_frame
         (Printf.sprintf "reply for request %d, expected %d" r.Wire.id id))
  | Ok (Wire.Error e) -> Error e
  | Ok f ->
    Error
      (Wire.error Wire.Bad_frame (Fmt.str "expected reply, got %a" Wire.pp_frame f))

let ping t payload =
  match roundtrip t (Wire.Ping payload) with
  | Error _ as e -> e
  | Ok (Wire.Pong p) -> Ok p
  | Ok (Wire.Error e) -> Error e
  | Ok f ->
    Error
      (Wire.error Wire.Bad_frame (Fmt.str "expected pong, got %a" Wire.pp_frame f))

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try write t Wire.Bye with Unix.Unix_error _ | Sys_error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

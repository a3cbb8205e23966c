(** Client side of the {!Wire} protocol.

    A thin blocking client over binary frames: [connect] dials the daemon, performs the hello
    handshake (pinning a front-end by dialect, feature list, or resident
    digest) and hands back the negotiated {!Wire.hello_ok}; [request] sends
    one statement batch and waits for its reply. Transport failures and
    server-sent [Error] frames both surface as {!Wire.error} values —
    nothing here raises for protocol reasons. One client is one
    connection; use one per thread. *)

type t

val connect :
  ?client:string ->
  ?max_frame:int ->
  selection:Wire.selection ->
  Wire.address ->
  (t * Wire.hello_ok, Wire.error) result
(** Dial, send [Hello], await [Hello_ok]. A server-rejected hello returns
    the server's structured error; a failed dial returns an {!Wire.Io}
    error. *)

val request :
  ?mode:Wire.mode -> t -> string list -> (Wire.reply, Wire.error) result
(** Send one batch (default mode {!Wire.Cst}) and block for the reply. *)

val ping : t -> string -> (string, Wire.error) result

val close : t -> unit
(** Send [Bye] best-effort and close the socket. Idempotent. *)

(** A growable byte buffer that can be patched in place.

    Reply frames are written into one: a binary frame's length prefix, an
    item count or a rendered tree's length is only known once what follows
    it is written, and the bytes are then patched where they stand and
    handed to [write] without a copy. {!Rows.render} writes into the same
    buffer, so a tree goes straight into the frame. *)

type t = {
  mutable buf : bytes;  (** capacity; bytes [0 .. len - 1] are written *)
  mutable len : int;
}

val create : int -> t
(** An empty buffer with room for [n] bytes. *)

val contents : t -> string
(** A copy of the written bytes. *)

val reserve : t -> int -> unit
(** [reserve o n] makes room for [n] more bytes, doubling the capacity. *)

val add_char : t -> char -> unit
val add_string : t -> string -> unit

val add_json : t -> string -> int -> int -> unit
(** [add_json o s off n] appends [s.[off .. off + n - 1]] escaped for a
    JSON string body: ['"'] and ['\\'] are backslash-escaped, printable
    ASCII is kept, and every other byte becomes [\u00XX]. No quotes are
    added. *)

val unsafe_add_json : t -> string -> int -> int -> unit
(** {!add_json} without the capacity check, for a writer that has
    {!reserve}d six bytes per byte of text. *)

type t = { mutable buf : bytes; mutable len : int }

let create n = { buf = Bytes.create (max 1 n); len = 0 }
let contents o = Bytes.sub_string o.buf 0 o.len

let rec double cap need = if cap >= need then cap else double (2 * cap) need

let grow o need =
  let bigger = Bytes.create (double (Bytes.length o.buf) need) in
  Bytes.blit o.buf 0 bigger 0 o.len;
  o.buf <- bigger

let reserve o n = if o.len + n > Bytes.length o.buf then grow o (o.len + n)

(* Labels, kinds and indents are short: a loop beats the blit's C call on
   them. *)
let unsafe_add_substring o s off n =
  let buf = o.buf and len = o.len in
  if n <= 16 then
    for i = 0 to n - 1 do
      Bytes.unsafe_set buf (len + i) (String.unsafe_get s (off + i))
    done
  else Bytes.unsafe_blit_string s off buf len n;
  o.len <- len + n

let add_char o c =
  reserve o 1;
  Bytes.unsafe_set o.buf o.len c;
  o.len <- o.len + 1

let add_string o s =
  let n = String.length s in
  reserve o n;
  unsafe_add_substring o s 0 n

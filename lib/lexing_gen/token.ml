type position = {
  line : int;
  column : int;
  offset : int;
}

type t = {
  kind : string;
  kind_id : int;
  text : string;
  pos : position;
}

let eof_kind = "EOF"
let eof_id = Interner.eof_id
let no_id = -1
let eof pos = { kind = eof_kind; kind_id = eof_id; text = ""; pos }

(* Every field is a literal, so the compiler emits this record as static
   data: it is never in the minor heap. *)
let placeholder =
  {
    kind = "";
    kind_id = -1;
    text = "";
    pos = { line = 0; column = 0; offset = 0 };
  }

let pp_position ppf p = Fmt.pf ppf "%d:%d" p.line p.column

let pp ppf t =
  if String.equal t.kind t.text || t.text = "" then Fmt.pf ppf "%s" t.kind
  else Fmt.pf ppf "%s(%s)" t.kind t.text

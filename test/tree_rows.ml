(* A tree built by hand, as rows: the leaves' tokens in order are the
   token stream, the labels in order of first use are the rule names, and
   each node is closed over its children, in a fresh arena of its own. *)

open Parser_gen

let of_cst (t : Cst.t) =
  let names = Hashtbl.create 16 and labels = ref [] and toks = ref [] in
  let rec collect = function
    | Cst.Leaf tok -> toks := tok :: !toks
    | Cst.Node (l, cs) ->
      if not (Hashtbl.mem names l) then begin
        Hashtbl.add names l (Hashtbl.length names);
        labels := l :: !labels
      end;
      List.iter collect cs
  in
  collect t;
  let a = Rows.create () in
  Rows.start a
    ~names:(Array.of_list (List.rev !labels))
    (Rows.Tokens (Array.of_list (List.rev !toks)));
  let next = ref 0 in
  let rec build = function
    | Cst.Leaf _ ->
      let i = !next in
      incr next;
      Rows.leaf i
    | Cst.Node (l, cs) ->
      let kids = List.fold_left (fun acc c -> build c :: acc) [] cs in
      Rows.close_list a ~rule:(Hashtbl.find names l) ~pos:!next kids
  in
  Rows.tree a (build t)

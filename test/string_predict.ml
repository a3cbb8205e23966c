(* The string-based LL(k <= 2) classifier: Lookahead's prediction
   sets, over lists of terminal names, compiled into the same dense
   dispatch tables Parser_gen.Ilookahead produces. It is the executable
   specification the interned analysis is checked against, and it plugs
   into Parser_gen.Engine.generate through [?classify]. *)

module LA = Lookahead
module Predict = Parser_gen.Predict

type t = {
  term_id : string -> int option;
  n_terms : int;
  la1 : LA.t;
  la2 : LA.t Lazy.t;
}

let make ~term_id ~n_terms g =
  {
    term_id;
    n_terms;
    la1 = LA.compute ~k:1 g;
    la2 = lazy (LA.compute ~k:2 g);
  }

(* A yield shorter than [k] is a complete derivation: the input there is
   exhausted, which the engine observes as the EOF sentinel — pad with it.
   [None] when some predicted terminal was never interned. *)
let seq_ids t ~k names =
  let rec go k = function
    | [] -> Some (List.init k (fun _ -> Lexing_gen.Interner.eof_id))
    | x :: rest ->
      Option.bind (t.term_id x) (fun id ->
          Option.map (fun tl -> id :: tl) (go (k - 1) rest))
  in
  go k names

exception Conflict

let try1 t sets =
  let table = Array.make t.n_terms (-1) in
  try
    List.iteri
      (fun b set ->
        LA.Seq_set.iter
          (fun seq ->
            match seq_ids t ~k:1 seq with
            | None -> raise Conflict
            | Some [ id ] ->
              if table.(id) = -1 then table.(id) <- b
              else if table.(id) <> b then raise Conflict
            | Some _ -> assert false)
          set)
      sets;
    Some (Predict.Commit1 table)
  with Conflict -> None

let try2 t sets =
  (* Exact pair map first, a pair claimed by two branches marked
     ambiguous; collapsed to a first-token table with per-token second
     rows. [Commit2] when no pair is ambiguous, [Partial] otherwise. *)
  let pairs : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let conflicted = ref false in
  try
    List.iteri
      (fun b set ->
        LA.Seq_set.iter
          (fun seq ->
            match seq_ids t ~k:2 seq with
            | None -> raise Conflict
            | Some [ a; c ] -> (
              let key = (a * t.n_terms) + c in
              match Hashtbl.find_opt pairs key with
              | None -> Hashtbl.replace pairs key b
              | Some b' ->
                if b' <> b then begin
                  conflicted := true;
                  Hashtbl.replace pairs key Predict.ambiguous
                end)
            | Some _ -> assert false)
          set)
      sets;
    let tbl1 = Array.make t.n_terms (-1) in
    let by_first : (int, (int * int) list) Hashtbl.t = Hashtbl.create 16 in
    Hashtbl.iter
      (fun key b ->
        let a = key / t.n_terms and c = key mod t.n_terms in
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_first a) in
        Hashtbl.replace by_first a ((c, b) :: prev))
      pairs;
    let second = Array.make t.n_terms [||] in
    Hashtbl.iter
      (fun a entries ->
        let branches = List.sort_uniq compare (List.map snd entries) in
        match branches with
        | [ b ] -> tbl1.(a) <- b (* second token never needed *)
        | _ ->
          tbl1.(a) <- -2;
          let row = Array.make t.n_terms (-1) in
          List.iter (fun (c, b) -> row.(c) <- b) entries;
          second.(a) <- row)
      by_first;
    Some
      (if !conflicted then Predict.Partial (tbl1, second)
       else Predict.Commit2 (tbl1, second))
  with Conflict -> None

let decide t ~lhs branches =
  match branches with
  | [] | [ _ ] -> Predict.Always
  | _ -> (
    let predicts la = List.map (fun alt -> LA.predict la ~lhs alt) branches in
    match try1 t (predicts t.la1) with
    | Some d -> d
    | None -> (
      match try2 t (predicts (Lazy.force t.la2)) with
      | Some d -> d
      | None -> Predict.Fallback))

(* A [?classify] oracle for [g] (the grammar handed to the engine), built
   on the first choice point and reused for the rest. *)
let classifier g =
  let ctx = ref None in
  fun ~term_id ~n_terms ~lhs branches ->
    let t =
      match !ctx with
      | Some t -> t
      | None ->
        let t = make ~term_id ~n_terms g in
        ctx := Some t;
        t
    in
    decide t ~lhs branches

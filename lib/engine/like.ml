(* A pattern is an array of steps: a byte code (0-255) matches that byte,
   [one] any byte, [any] any sequence. Runs of [any] collapse to one. *)
type t = int array

let one = -1
let any = -2

let compile ?escape pattern =
  let n = String.length pattern in
  let steps = ref [] in
  let push s =
    match !steps with
    | prev :: _ when s = any && prev = any -> ()
    | _ -> steps := s :: !steps
  in
  let i = ref 0 in
  while !i < n do
    let c = pattern.[!i] in
    (match escape with
     | Some e when c = e && !i + 1 < n ->
       incr i;
       push (Char.code pattern.[!i])
     | _ ->
       push (match c with '%' -> any | '_' -> one | c -> Char.code c));
    incr i
  done;
  Array.of_list (List.rev !steps)

(* [reach] holds, for each position [k] in [0, m], whether the steps so far
   can consume exactly the first [k] bytes of [s]. *)
let matches steps s =
  let m = String.length s in
  let reach = Bytes.make (m + 1) '\000' in
  Bytes.unsafe_set reach 0 '\001';
  let live = ref true in
  let i = ref 0 in
  while !live && !i < Array.length steps do
    let step = steps.(!i) in
    if step = any then begin
      (* Everything at or after the first reachable position is reachable. *)
      let seen = ref false in
      for k = 0 to m do
        if Bytes.unsafe_get reach k = '\001' then seen := true
        else if !seen then Bytes.unsafe_set reach k '\001'
      done
    end
    else begin
      (* Shift by one byte, keeping only positions whose byte matches. *)
      let any_left = ref false in
      for k = m downto 1 do
        let ok =
          Bytes.unsafe_get reach (k - 1) = '\001'
          && (step = one || Char.code (String.unsafe_get s (k - 1)) = step)
        in
        Bytes.unsafe_set reach k (if ok then '\001' else '\000');
        if ok then any_left := true
      done;
      Bytes.unsafe_set reach 0 '\000';
      live := !any_left
    end;
    incr i
  done;
  !live && Bytes.unsafe_get reach m = '\001'

let like ?escape ~pattern s = matches (compile ?escape pattern) s

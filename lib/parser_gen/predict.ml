type decision =
  | Always
  | Commit1 of int array
  | Commit2 of int array * (int, int array) Hashtbl.t
  | Fallback

let committed = function
  | Always | Commit1 _ | Commit2 _ -> true
  | Fallback -> false

let k_used = function
  | Always | Fallback -> 0
  | Commit1 _ -> 1
  | Commit2 _ -> 2

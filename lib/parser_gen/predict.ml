type decision =
  | Always
  | Commit1 of int array
  | Commit2 of int array * int array array
  | Partial of int array * int array array
  | Fallback

let ambiguous = -3

let committed = function
  | Always | Commit1 _ | Commit2 _ -> true
  | Partial _ | Fallback -> false

let k_used = function
  | Always | Fallback -> 0
  | Commit1 _ -> 1
  | Commit2 _ | Partial _ -> 2

let commits_somewhere = function
  | Always | Commit1 _ | Commit2 _ -> true
  | Fallback -> false
  | Partial (table, second) ->
    Array.exists (fun b -> b >= 0) table
    || Array.exists (Array.exists (fun b -> b >= 0)) second

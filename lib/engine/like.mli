(** SQL LIKE pattern matching: ['%'] matches any sequence, ['_'] any one
    character, and an optional escape character makes the character after
    it literal (an escape character at the very end of the pattern stands
    for itself).

    Matching is one left-to-right pass over the pattern that keeps the set
    of string positions reachable so far: O(|s| * |pattern|) time however
    many wildcards the pattern holds. *)

type t
(** A pre-parsed pattern. *)

val compile : ?escape:char -> string -> t

val matches : t -> string -> bool

val like : ?escape:char -> pattern:string -> string -> bool
(** [like ?escape ~pattern s] is [matches (compile ?escape pattern) s]. *)

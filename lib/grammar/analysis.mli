(** Static analysis of EBNF grammars: left-recursion detection.

    The lookahead analyses (FIRST/FOLLOW sets, LL(k) conflicts) are
    [Parser_gen.Ilookahead]'s; the string FIRST/FOLLOW analysis they are
    checked against lives in the test suite ([Oracle.Analysis]). *)

val left_recursive : Cfg.t -> string list
(** Non-terminals involved in (direct or indirect) left recursion, which the
    parser generator rejects — as LL(k) generators such as ANTLR do. *)

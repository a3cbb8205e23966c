(* Bytecode executor for {!Program}.

   The interpreter is a single tail-recursive loop over four explicit
   integer stacks (frames, star-loop marks, scope marks, choice points) plus
   a CST value stack, all held in growable per-domain arenas. The hot path —
   committed MATCH/CALL/RET/D1/D2 — touches only flat [int array]s: no
   closures, no [iterm] ADT matching, no memo traffic.

   Two entries run the loop, each on its own per-domain arena: [exec]
   parses a statement, and [strict] runs one [nt_strict] non-terminal for
   the memoized oracle, from inside a running [exec]'s [FB]. A strict run
   ends at its base frame's [RET] and gives up as ambiguous at a [-3]
   entry, so it never reaches [FB] ([nt_strict] rules reference only
   [nt_fast] ones): it never re-enters the oracle, and two arenas are
   enough.

   Backtracking semantics (the contract the memoized engine's results are
   checked against, byte for byte, by the differential tests):

   - [FB nt] asks the memoized engine ([fallback]) for the
     priority-ordered derivation stream of a non-fast non-terminal and
     takes the first end; the lazy tail becomes a choice point (unless it
     is already known to be empty). The tail is forced only when a failure
     backtracks into it, so the oracle derives a later alternative only
     when the parse needs it.
   - A [D2] whose table entry is ambiguous (-3) can only be a [Partial]
     rule-level choice, the first instruction of its rule: nothing has
     been consumed or pushed since the [CALL], so popping that frame and
     running [FB nt] in its place makes the reference a fallback
     boundary.
   - A choice point lives until the [COMMIT] closing the sequence that
     created it: once the rest of the enclosing sequence succeeds the choice
     is final. Choices outside any scope (the boot [FB] of a start rule
     that is not compiled) stay live until [HALT].
   - On failure the most recent live choice is resumed with its next end
     (LIFO = innermost-first, matching native-stack unwinding), restoring
     the four stack depths saved at its creation. A choice whose tail
     forces to [Nil] is popped and backtracking carries on with the one
     below it.
   - A run that exhausts its choices rejects; the caller re-derives the
     statement on the pure memoized path for a byte-identical error
     report.

   In recognition mode ([build = false]) the CST stack is untouched: the
   fully committed accept path allocates nothing per token. *)

let dummy = Cst.Node ("", [])

type arena = {
  mutable cst : Cst.t array;
  mutable frames : int array; (* 2 ints per frame: ret_ip, cst_mark *)
  mutable loops : int array; (* star-iteration start positions *)
  mutable scopes : int array; (* choice-stack marks *)
  mutable ch_ints : int array;
      (* 5 ints per choice: resume_ip, cst_sp, frame_sp, loop_sp, scope_sp *)
  mutable ch_ends : Engine_types.derivs Lazy.t array;
      (* remaining ends, a lazy tail of the oracle's derivation stream *)
}

let new_arena () =
  {
    cst = Array.make 256 dummy;
    frames = Array.make 128 0;
    loops = Array.make 64 0;
    scopes = Array.make 64 0;
    ch_ints = Array.make 80 0;
    ch_ends = Array.make 16 Engine_types.nil_tail;
  }

let arena_key : arena Domain.DLS.key = Domain.DLS.new_key new_arena
let strict_arena_key : arena Domain.DLS.key = Domain.DLS.new_key new_arena

(* A tail already known to be empty (the usual single derivation) needs no
   choice point. Unforced tails are pushed as they are: deriving them is
   the work laziness saves. *)
let forced_nil (rest : Engine_types.derivs Lazy.t) =
  Lazy.is_val rest
  && match Lazy.force rest with Engine_types.Nil -> true | Cons _ -> false

let grow_int (a : int array) =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The interpreter over arena [a]. [run ip pos] resets the stacks and
   steps from [ip]; a [strict] run first pushes a base frame returning to
   the boot [HALT] (address 2). The result is the end position on
   acceptance, [-1] on rejection, or [Predict.ambiguous] when a strict run
   meets a [-3] entry. An accepted tree is [a.cst.(0)]: the boot reference
   (or the strict base frame) reduces into the bottom slot. *)
let machine prog a ~(ids : int array) ~n ~build ~(leaf : int -> Cst.t)
    ~(fallback : int -> int -> Engine_types.derivs) ~strict =
  let code = Program.code prog in
  let t1 = Program.t1 prog in
  let t2_first = Program.t2_first prog in
  let t2_second = Program.t2_second prog in
  let csp = ref 0 and fsp = ref 0 and lsp = ref 0 and ssp = ref 0 in
  let cp = ref 0 in
  let push_cst v =
    if !csp = Array.length a.cst then begin
      let b = Array.make (2 * Array.length a.cst) dummy in
      Array.blit a.cst 0 b 0 (Array.length a.cst);
      a.cst <- b
    end;
    Array.unsafe_set a.cst !csp v;
    incr csp
  in
  let push_frame ret_ip =
    if !fsp + 2 > Array.length a.frames then a.frames <- grow_int a.frames;
    Array.unsafe_set a.frames !fsp ret_ip;
    Array.unsafe_set a.frames (!fsp + 1) !csp;
    fsp := !fsp + 2
  in
  let push_loop pos =
    if !lsp = Array.length a.loops then a.loops <- grow_int a.loops;
    Array.unsafe_set a.loops !lsp pos;
    incr lsp
  in
  let push_scope () =
    if !ssp = Array.length a.scopes then a.scopes <- grow_int a.scopes;
    Array.unsafe_set a.scopes !ssp !cp;
    incr ssp
  in
  let push_choice resume_ip rest =
    let base = !cp * 5 in
    if base + 5 > Array.length a.ch_ints then a.ch_ints <- grow_int a.ch_ints;
    if !cp = Array.length a.ch_ends then begin
      let b = Array.make (2 * Array.length a.ch_ends) Engine_types.nil_tail in
      Array.blit a.ch_ends 0 b 0 (Array.length a.ch_ends);
      a.ch_ends <- b
    end;
    a.ch_ints.(base) <- resume_ip;
    a.ch_ints.(base + 1) <- !csp;
    a.ch_ints.(base + 2) <- !fsp;
    a.ch_ints.(base + 3) <- !lsp;
    a.ch_ints.(base + 4) <- !ssp;
    a.ch_ends.(!cp) <- rest;
    incr cp
  in
  let tid pos = if pos < n then Array.unsafe_get ids pos else 0 in
  let rec step ip pos =
    let op = Array.unsafe_get code ip in
    if op = Program.op_match then begin
      if pos < n && Array.unsafe_get ids pos = Array.unsafe_get code (ip + 1)
      then begin
        if build then push_cst (leaf pos);
        step (ip + 2) (pos + 1)
      end
      else backtrack ()
    end
    else if op = Program.op_call then begin
      push_frame (ip + 2);
      step (Program.entry prog (Array.unsafe_get code (ip + 1))) pos
    end
    else if op = Program.op_ret then begin
      fsp := !fsp - 2;
      let ret_ip = Array.unsafe_get a.frames !fsp in
      if build then begin
        let mark = Array.unsafe_get a.frames (!fsp + 1) in
        let stack = a.cst in
        let rec collect k acc =
          if k < mark then acc
          else collect (k - 1) (Array.unsafe_get stack k :: acc)
        in
        let children = collect (!csp - 1) [] in
        csp := mark;
        push_cst (Cst.Node (Program.nt_name prog code.(ip + 1), children))
      end;
      step ret_ip pos
    end
    else if op = Program.op_d1 then begin
      let k = tid pos in
      let b =
        if k < 0 then -1
        else Array.unsafe_get (Array.unsafe_get t1 code.(ip + 1)) k
      in
      if b < 0 then backtrack () else step (Array.unsafe_get code (ip + 3 + b)) pos
    end
    else if op = Program.op_d2 then begin
      let k1 = tid pos in
      let b =
        if k1 < 0 then -1
        else
          match Array.unsafe_get (Array.unsafe_get t2_first code.(ip + 1)) k1 with
          | -2 ->
            let k2 = tid (pos + 1) in
            if k2 < 0 then -1
            else
              Array.unsafe_get
                (Array.unsafe_get (Array.unsafe_get t2_second code.(ip + 1)) k1)
                k2
          | b -> b
      in
      if b >= 0 then step (Array.unsafe_get code (ip + 3 + b)) pos
      else if b = Predict.ambiguous then begin
        if strict then Predict.ambiguous
        else begin
          fsp := !fsp - 2;
          fallback_at (Array.unsafe_get a.frames !fsp) pos
        end
      end
      else backtrack ()
    end
    else if op = Program.op_jmp then step (Array.unsafe_get code (ip + 1)) pos
    else if op = Program.op_fb then fallback_at (ip + 2) pos
    else if op = Program.op_spush then begin
      push_loop pos;
      step (ip + 1) pos
    end
    else if op = Program.op_sloop then begin
      decr lsp;
      let entered_at = Array.unsafe_get a.loops !lsp in
      (* Loop only on progress: a zero-progress iteration of a nullable
         body exits. *)
      if pos > entered_at then step (Array.unsafe_get code (ip + 1)) pos
      else step (ip + 2) pos
    end
    else if op = Program.op_scope then begin
      push_scope ();
      step (ip + 1) pos
    end
    else if op = Program.op_commit then begin
      decr ssp;
      let mark = Array.unsafe_get a.scopes !ssp in
      (* Choices opened inside the scope are final now that the sequence
         that created them has completed. *)
      for k = mark to !cp - 1 do
        a.ch_ends.(k) <- Engine_types.nil_tail
      done;
      if !cp > mark then cp := mark;
      step (ip + 1) pos
    end
    else begin
      (* HALT: a strict run ends here, whatever follows. A statement is
         accepted iff the remaining lookahead is EOF. The compiler commits
         every choice before its rule returns, so the only live choice
         here is the boot FB (a start rule that is not compiled, or an
         ambiguous start entry standing in for the boot CALL), whose next
         end is tried — as the memoized engine tries the start symbol's
         derivations in turn. Otherwise a non-EOF residue rejects
         outright. *)
      if strict || tid pos = 0 then pos else backtrack ()
    end
  (* The fallback boundary for the non-terminal whose reference ends just
     before [resume_ip] (an [FB nt] or a [CALL nt]): ends are tried in
     priority order, the rest kept as a choice point. *)
  and fallback_at resume_ip pos =
    let nid = Array.unsafe_get code (resume_ip - 1) in
    match fallback nid pos with
    | Nil -> backtrack ()
    | Cons (j, children, rest) ->
      if not (forced_nil rest) then push_choice resume_ip rest;
      if build then push_cst (Cst.Node (Program.nt_name prog nid, children));
      step resume_ip j
  and backtrack () =
    if !cp = 0 then -1
    else begin
      let top = !cp - 1 in
      let base = top * 5 in
      match Lazy.force a.ch_ends.(top) with
      | Nil ->
        (* The tail turned out empty: the choice is exhausted. *)
        a.ch_ends.(top) <- Engine_types.nil_tail;
        cp := top;
        backtrack ()
      | Cons (j, children, rest) ->
        csp := a.ch_ints.(base + 1);
        fsp := a.ch_ints.(base + 2);
        lsp := a.ch_ints.(base + 3);
        ssp := a.ch_ints.(base + 4);
        let resume_ip = a.ch_ints.(base) in
        a.ch_ends.(top) <- rest;
        if build then
          push_cst
            (Cst.Node (Program.nt_name prog code.(resume_ip - 1), children));
        step resume_ip j
    end
  in
  fun ip pos ->
    csp := 0;
    fsp := 0;
    lsp := 0;
    ssp := 0;
    if strict then push_frame 2;
    let j = step ip pos in
    (* Drop references to derivation streams so the arena does not retain
       CSTs (or the oracle's memo, through unforced tails) across parses. *)
    for k = 0 to !cp - 1 do
      a.ch_ends.(k) <- Engine_types.nil_tail
    done;
    cp := 0;
    j

let exec prog ~ids ~n ~build ~leaf ~fallback =
  let a = Domain.DLS.get arena_key in
  let run = machine prog a ~ids ~n ~build ~leaf ~fallback ~strict:false in
  let j = run 0 0 (* the boot CALL or FB *) in
  if j < 0 then None else if build then Some a.cst.(0) else Some dummy

type strict = {
  run : int -> int -> int;
  children : unit -> Cst.t list;
}

let strict prog ~ids ~n ~build ~leaf =
  let a = Domain.DLS.get strict_arena_key in
  let run =
    machine prog a ~ids ~n ~build ~leaf ~strict:true ~fallback:(fun _ _ ->
        (* an [nt_strict] rule references only [nt_fast] ones *)
        assert false)
  in
  {
    run = (fun nt pos -> run (Program.entry prog nt) pos);
    children =
      (fun () ->
        if build then
          match a.cst.(0) with Cst.Node (_, cs) -> cs | Cst.Leaf _ -> []
        else []);
  }

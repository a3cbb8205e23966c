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

   A building run keeps a value stack of child codes ({!Rows.leaf} of a
   matched token, or a row id) and closes each node at its [RET] into the
   domain's row arena ({!Rows.close}), so it allocates nothing per token
   either. In recognition mode ([build = false]) the value stack is
   untouched.

   Each arena has one runner per domain: the interpreter's closures are
   built once per program and read the run's token ids, count, mode and
   oracle from a mutable [input] record. *)

type arena = {
  mutable vals : int array; (* child codes of the open nodes *)
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
    vals = Array.make 256 0;
    frames = Array.make 128 0;
    loops = Array.make 64 0;
    scopes = Array.make 64 0;
    ch_ints = Array.make 80 0;
    ch_ends = Array.make 16 Engine_types.nil_tail;
  }

(* What changes from run to run; the closures read it here. *)
type input = {
  mutable ids : int array;
  mutable n : int;
  mutable build : bool;
  mutable fallback : int -> int -> Engine_types.derivs;
}

let no_fallback _ _ =
  (* an [nt_strict] rule references only [nt_fast] ones *)
  assert false

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

(* The interpreter over arena [a], closing rows into [rows]. [run ip pos]
   resets the stacks and steps from [ip]; a [strict] run first pushes a
   base frame returning to the boot [HALT] (address 2). The result is the
   end position on acceptance, [-1] on rejection, or [Predict.ambiguous]
   when a strict run meets a [-3] entry. An accepted tree's root row is
   [a.vals.(0)]: the boot reference (or the strict base frame) reduces
   into the bottom slot. *)
let machine prog a rows (inp : input) ~strict =
  let code = Program.code prog in
  let t1 = Program.t1 prog in
  let t2_first = Program.t2_first prog in
  let t2_second = Program.t2_second prog in
  let csp = ref 0 and fsp = ref 0 and lsp = ref 0 and ssp = ref 0 in
  let cp = ref 0 in
  let push_val v =
    if !csp = Array.length a.vals then a.vals <- grow_int a.vals;
    Array.unsafe_set a.vals !csp v;
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
  let tid pos = if pos < inp.n then Array.unsafe_get inp.ids pos else 0 in
  let rec step ip pos =
    let op = Array.unsafe_get code ip in
    if op = Program.op_match then begin
      if pos < inp.n && Array.unsafe_get inp.ids pos = Array.unsafe_get code (ip + 1)
      then begin
        if inp.build then begin
          let sp = !csp in
          if sp = Array.length a.vals then a.vals <- grow_int a.vals;
          (* [Rows.leaf pos], spelled out on the per-token path *)
          Array.unsafe_set a.vals sp (lnot pos);
          csp := sp + 1
        end;
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
      if inp.build then begin
        let mark = Array.unsafe_get a.frames (!fsp + 1) in
        let row =
          Rows.close rows ~rule:(Array.unsafe_get code (ip + 1)) ~pos a.vals
            mark !csp
        in
        (* the children's slots are free: the row takes the first *)
        if mark = Array.length a.vals then a.vals <- grow_int a.vals;
        Array.unsafe_set a.vals mark row;
        csp := mark + 1
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
    match inp.fallback nid pos with
    | Nil -> backtrack ()
    | Cons (j, row, rest) ->
      if not (forced_nil rest) then push_choice resume_ip rest;
      if inp.build then push_val row;
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
      | Cons (j, row, rest) ->
        csp := a.ch_ints.(base + 1);
        fsp := a.ch_ints.(base + 2);
        lsp := a.ch_ints.(base + 3);
        ssp := a.ch_ints.(base + 4);
        let resume_ip = a.ch_ints.(base) in
        a.ch_ends.(top) <- rest;
        if inp.build then push_val row;
        step resume_ip j
    end
  in
  fun ip pos ->
    (* [cp] too: a run that raised left its choices behind *)
    csp := 0;
    fsp := 0;
    lsp := 0;
    ssp := 0;
    cp := 0;
    if strict then push_frame 2;
    let j = step ip pos in
    (* Drop references to derivation streams so the arena does not retain
       the oracle's memo, through unforced tails, across parses. *)
    for k = 0 to !cp - 1 do
      a.ch_ends.(k) <- Engine_types.nil_tail
    done;
    cp := 0;
    j

(* A domain's runner on one arena, rebuilt only when the program
   changes. *)
type runner = {
  prog : Program.t;
  arena : arena;
  input : input;
  run : int -> int -> int;
}

type slot = { slot_arena : arena; mutable runner : runner option }

let new_slot () = { slot_arena = new_arena (); runner = None }
let exec_slot : slot Domain.DLS.key = Domain.DLS.new_key new_slot
let strict_slot : slot Domain.DLS.key = Domain.DLS.new_key new_slot

let runner key prog ~ids ~n ~build ~fallback ~strict =
  let slot = Domain.DLS.get key in
  let r =
    match slot.runner with
    | Some r when r.prog == prog -> r
    | _ ->
      let input = { ids = [||]; n = 0; build = false; fallback = no_fallback } in
      let arena = slot.slot_arena in
      let r =
        { prog; arena; input;
          run = machine prog arena (Rows.domain ()) input ~strict }
      in
      slot.runner <- Some r;
      r
  in
  let inp = r.input in
  inp.ids <- ids;
  inp.n <- n;
  inp.build <- build;
  inp.fallback <- fallback;
  r

let exec prog ~ids ~n ~build ~fallback =
  let r = runner exec_slot prog ~ids ~n ~build ~fallback ~strict:false in
  let j = r.run 0 0 (* the boot CALL or FB *) in
  (* The runner outlives the run: it must not keep its input alive. *)
  r.input.ids <- [||];
  r.input.fallback <- no_fallback;
  if j < 0 then -1 else if build then r.arena.vals.(0) else 0

let strict prog ~ids ~n ~build nt pos =
  let r =
    runner strict_slot prog ~ids ~n ~build ~fallback:no_fallback ~strict:true
  in
  r.run (Program.entry prog nt) pos

let strict_row () = (Domain.DLS.get strict_slot).slot_arena.vals.(0)

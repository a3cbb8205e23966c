(* Lowering of the classified grammar into flat bytecode.

   Every [nt_fast] non-terminal — one whose own choice points all committed,
   or whose rule-level choice commits per lookahead — is compiled to a
   contiguous run of integer opcodes in one shared [code] array. The {!Vm}
   executes this with an explicit int stack: no closures, no ADT matching,
   no boxed iterm trees on the hot path. References to
   non-fast non-terminals compile to [FB], the fallback boundary at which
   the VM calls back into the memoized engine for that one occurrence.

   Opcode layout (each opcode followed inline by its operands). The program
   starts with [CALL start; HALT] at address 0, or [FB start; HALT] when
   the start rule is not [nt_fast], so the VM can run every grammar.

     HALT                      end of parse; accept iff lookahead is EOF
                               (else resume the latest live choice)
     MATCH t                   consume one token of kind [t] or fail
     CALL nt                   push frame, jump to [entries.(nt)]
     RET nt                    pop frame, reduce children to a [nt] node
     JMP a                     unconditional jump (branch join points)
     D1 x n a0..a(n-1)         k=1 dispatch: probe [t1.(x)] with the current
                               token id, jump to the selected branch address
     D2 x n a0..a(n-1)         k=2 dispatch via [t2_first.(x)] and, for
                               entries marked -2, the second-token row in
                               [t2_second.(x)]; a [Partial] rule-level
                               choice compiles to the D2 at its rule's
                               entry, and its ambiguous (-3) entries turn
                               the CALL that entered the rule into [FB]
     FB nt                     fallback boundary: derivations of the non-fast
                               [nt] come from the memoized engine; ends are
                               tried in priority order (a VM choice point)
     SPUSH                     save the position entering a star iteration
     SLOOP a                   end of a star iteration: loop to [a] if the
                               iteration consumed input, else exit
     SCOPE                     open a backtracking scope (save choice mark)
     COMMIT                    close the scope: choice points opened inside
                               are final once the sequence completes

   Dispatch tables are not copied into the code array; [D1]/[D2] reference
   the dense side tables by index, so the VM probes a flat [int array] (and,
   for k=2 escalations only, one second-token row). *)

open Engine_types

type t = {
  code : int array;
  entries : int array; (* nt id -> entry address, -1 for non-fast rules *)
  t1 : int array array;
  t2_first : int array array;
  t2_second : int array array array;
  nt_names : string array; (* for the disassembler only *)
  start_entry : int; (* entries.(start), -1 when the start rule is not fast *)
}

(* Opcodes. *)
let op_halt = 0
let op_match = 1
let op_call = 2
let op_ret = 3
let op_jmp = 4
let op_d1 = 5
let op_d2 = 6
let op_fb = 7
let op_spush = 8
let op_sloop = 9
let op_scope = 10
let op_commit = 11

let code t = t.code
let entry t nt = t.entries.(nt)
let start_entry t = t.start_entry
let t1 t = t.t1
let t2_first t = t.t2_first
let t2_second t = t.t2_second
let nt_name t nt = t.nt_names.(nt)

(* Growable code emitter. *)
type emitter = {
  mutable buf : int array;
  mutable len : int;
  mutable e_t1 : int array list; (* reversed *)
  mutable e_t1_n : int;
  mutable e_t2 : (int array * int array array) list; (* reversed *)
  mutable e_t2_n : int;
}

let emit e v =
  let cap = Array.length e.buf in
  if e.len = cap then begin
    let bigger = Array.make (2 * cap) 0 in
    Array.blit e.buf 0 bigger 0 cap;
    e.buf <- bigger
  end;
  e.buf.(e.len) <- v;
  e.len <- e.len + 1

let here e = e.len

(* Reserve a slot to be patched once the target address is known. *)
let emit_hole e =
  let at = e.len in
  emit e (-1);
  at

let patch e at v = e.buf.(at) <- v

let register_t1 e table =
  let idx = e.e_t1_n in
  e.e_t1 <- table :: e.e_t1;
  e.e_t1_n <- idx + 1;
  idx

let register_t2 e table second =
  let idx = e.e_t2_n in
  e.e_t2 <- (table, second) :: e.e_t2;
  e.e_t2_n <- idx + 1;
  idx

(* Emit a dispatch over [branches] (addresses patched as each branch is
   compiled); [compile_branch b jump_out] compiles branch [b], where
   [jump_out = true] means control must join after the dispatch rather than
   fall through (the last branch falls through naturally). *)
let emit_dispatch e decision n_branches compile_branch =
  (match decision with
  | Predict.Commit1 table ->
    emit e op_d1;
    emit e (register_t1 e table)
  | Predict.Commit2 (table, second) | Predict.Partial (table, second) ->
    emit e op_d2;
    emit e (register_t2 e table second)
  | Predict.Always | Predict.Fallback ->
    (* [Always] never reaches here (single-branch points are inlined) and
       [Fallback] never occurs inside an [nt_fast] body by construction. *)
    assert false);
  emit e n_branches;
  let holes = Array.init n_branches (fun _ -> emit_hole e) in
  let joins = ref [] in
  for b = 0 to n_branches - 1 do
    patch e holes.(b) (here e);
    let join = compile_branch b (b < n_branches - 1) in
    joins := join @ !joins
  done;
  List.iter (fun at -> patch e at (here e)) !joins

(* Can this sequence meet a fallback boundary at its own level — an FB, or
   a CALL whose rule-level [Partial] choice may turn it into one? Such a
   sequence brackets its body in SCOPE/COMMIT so the VM's backtracking stays
   scoped: a choice made by a fallback boundary is final once the rest of
   its enclosing sequence has succeeded. *)
let seq_has_fb nt_fast alt_dispatch (seq : iseq) =
  Array.exists
    (function
      | INonterm nid -> (
        (not nt_fast.(nid))
        || match alt_dispatch.(nid) with Predict.Partial _ -> true | _ -> false)
      | _ -> false)
    seq

let compile ~nt_names ~nt_fast ~(rules : (iseq * pred) array array)
    ~(alt_dispatch : Predict.decision array) ~start =
  let e =
    {
      buf = Array.make 256 0;
      len = 0;
      e_t1 = [];
      e_t1_n = 0;
      e_t2 = [];
      e_t2_n = 0;
    }
  in
  let n_nts = Array.length rules in
  (* The boot sequence: [CALL start; HALT] when the start rule is compiled
     (its RET returns to the HALT at 2, and an FB standing in for the CALL
     resumes there), [FB start; HALT] otherwise — the whole statement is
     then one fallback occurrence, whose ends HALT tries in turn. *)
  emit e (if nt_fast.(start) then op_call else op_fb);
  emit e start;
  emit e op_halt;
  let entries = Array.make n_nts (-1) in
  let rec emit_seq seq =
    let scoped = seq_has_fb nt_fast alt_dispatch seq in
    if scoped then emit e op_scope;
    Array.iter emit_term seq;
    if scoped then emit e op_commit
  and emit_term = function
    | ITerm id ->
      emit e op_match;
      emit e id
    | INonterm nid ->
      if nt_fast.(nid) then begin
        emit e op_call;
        emit e nid
      end
      else begin
        emit e op_fb;
        emit e nid
      end
    | IOpt (s, _, d) ->
      (* branch 0: enter the body; branch 1: skip. *)
      emit_dispatch e d 2 (fun b jump_out ->
          if b = 0 then begin
            emit_seq s;
            if jump_out then [ (emit e op_jmp; emit_hole e) ] else []
          end
          else [])
    | IStar (s, _, d) -> emit_star s d
    | IPlus (s, _, d) ->
      (* Mandatory first iteration, then the star loop. The body is emitted
         twice; sharing it would need a subroutine frame for no measured
         win. *)
      emit_seq s;
      emit_star s d
    | IGroup (alts, d) ->
      (match Array.length alts with
      | 0 -> ()
      | 1 -> emit_seq (fst alts.(0))
      | n ->
        emit_dispatch e d n (fun b jump_out ->
            emit_seq (fst alts.(b));
            if jump_out then [ (emit e op_jmp; emit_hole e) ] else []))
  and emit_star s d =
    (* head: D 2 [body; exit]; body: SPUSH <s> SLOOP head. [SLOOP] loops
       only on progress: a zero-progress iteration of a nullable body
       exits. *)
    let head = here e in
    emit_dispatch e d 2 (fun b _jump_out ->
        if b = 0 then begin
          emit e op_spush;
          emit_seq s;
          emit e op_sloop;
          emit e head;
          (* [SLOOP] either jumps to [head] or falls through to the join —
             which is exactly the exit branch's address. *)
          []
        end
        else [])
  in
  for nt = 0 to n_nts - 1 do
    if nt_fast.(nt) then begin
      entries.(nt) <- here e;
      let alts = rules.(nt) in
      (match Array.length alts with
      | 0 -> assert false (* grammar rules always have an alternative *)
      | 1 -> emit_seq (fst alts.(0))
      | n ->
        emit_dispatch e alt_dispatch.(nt) n (fun b jump_out ->
            emit_seq (fst alts.(b));
            if jump_out then [ (emit e op_jmp; emit_hole e) ] else []));
      emit e op_ret;
      emit e nt
    end
  done;
  {
    code = Array.sub e.buf 0 e.len;
    entries;
    t1 = Array.of_list (List.rev e.e_t1);
    t2_first = Array.of_list (List.rev (List.map fst e.e_t2));
    t2_second = Array.of_list (List.rev (List.map snd e.e_t2));
    nt_names;
    start_entry = entries.(start);
  }

let compiled_nts t =
  Array.fold_left (fun n a -> if a >= 0 then n + 1 else n) 0 t.entries

let pp ppf t =
  let name nt = t.nt_names.(nt) in
  let entry_of = Hashtbl.create 64 in
  Array.iteri
    (fun nt addr -> if addr >= 0 then Hashtbl.replace entry_of addr nt)
    t.entries;
  let i = ref 0 in
  let code = t.code in
  while !i < Array.length code do
    (match Hashtbl.find_opt entry_of !i with
    | Some nt -> Fmt.pf ppf "%s:@." (name nt)
    | None -> ());
    Fmt.pf ppf "%4d  " !i;
    let op = code.(!i) in
    if op = op_halt then begin
      Fmt.pf ppf "HALT@.";
      incr i
    end
    else if op = op_match then begin
      Fmt.pf ppf "MATCH %d@." code.(!i + 1);
      i := !i + 2
    end
    else if op = op_call then begin
      Fmt.pf ppf "CALL %s@." (name code.(!i + 1));
      i := !i + 2
    end
    else if op = op_ret then begin
      Fmt.pf ppf "RET %s@." (name code.(!i + 1));
      i := !i + 2
    end
    else if op = op_jmp then begin
      Fmt.pf ppf "JMP %d@." code.(!i + 1);
      i := !i + 2
    end
    else if op = op_d1 || op = op_d2 then begin
      let n = code.(!i + 2) in
      Fmt.pf ppf "%s t%d [%a]@."
        (if op = op_d1 then "D1" else "D2")
        code.(!i + 1)
        Fmt.(list ~sep:sp int)
        (Array.to_list (Array.sub code (!i + 3) n));
      i := !i + 3 + n
    end
    else if op = op_fb then begin
      Fmt.pf ppf "FB %s@." (name code.(!i + 1));
      i := !i + 2
    end
    else if op = op_spush then begin
      Fmt.pf ppf "SPUSH@.";
      incr i
    end
    else if op = op_sloop then begin
      Fmt.pf ppf "SLOOP %d@." code.(!i + 1);
      i := !i + 2
    end
    else if op = op_scope then begin
      Fmt.pf ppf "SCOPE@.";
      incr i
    end
    else if op = op_commit then begin
      Fmt.pf ppf "COMMIT@.";
      incr i
    end
    else begin
      Fmt.pf ppf "?%d@." op;
      incr i
    end
  done

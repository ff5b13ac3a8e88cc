(* The reference model of [Ebc.verify]: the verifier as it was written
   first, over one option array per program point, copied at every
   instruction. It is slow and allocates freely, which is why [Ebc]
   packs its state; test_verifier checks that both return the same
   certificate or the same error on every program it draws. [Ok] carries
   the certificate's step bound. *)

open Spin_core.Ebc
module Ty = Spin_core.Ty

let nregs = 8
let max_offset = 65536
let max_program = 4096

exception Reject of error

(* Verifier state: per-register [None] = uninitialized. *)

let rty_equal a b =
  match a, b with
  | Rcap x, Rcap y -> Ty.equal x y
  | a, b -> a = b

let merge_state a b =
  Array.init nregs (fun i ->
    match a.(i), b.(i) with
    | Some x, Some y when rty_equal x y -> Some x
    | _ -> None)

let state_equal a b =
  let ok = ref true in
  for i = 0 to nregs - 1 do
    (match a.(i), b.(i) with
     | Some x, Some y when rty_equal x y -> ()
     | None, None -> ()
     | _ -> ok := false)
  done;
  !ok

(* Saturating arithmetic so nested Loop multipliers can't overflow. *)
let sat_cap = 1 lsl 40
let sat_add a b = let s = a + b in if s < 0 || s > sat_cap then sat_cap else s
let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if a > sat_cap / b then sat_cap
  else a * b

let verify ~layout ?(caps = [||]) ?(budget = default_budget) code =
  let n = Array.length code in
  let nfields = Array.length layout.l_fields in
  let has_payload = layout.l_payload <> None in
  let ncaps = Array.length caps in
  let check_reg pc r =
    if r < 0 || r >= nregs then raise (Reject (Bad_register { pc; reg = r })) in
  let read st pc r =
    check_reg pc r;
    match st.(r) with
    | Some t -> t
    | None -> raise (Reject (Uninitialized { pc; reg = r })) in
  let write st pc r t =
    check_reg pc r;
    let st' = Array.copy st in
    st'.(r) <- Some t;
    st' in
  (* Verify the block [pc0, stop) entered with [entry]; return the
     state with which control can fall off the end of the block (None
     if every path Rets) and a saturating upper bound on executed
     steps. Jump targets must stay within the block and may not land
     inside a reachable Loop body — the interpreter enters bodies only
     through their Loop instruction. *)
  let rec block pc0 stop entry =
    let states = Array.make (stop - pc0 + 1) None in
    let set i st =
      let idx = i - pc0 in
      states.(idx) <-
        (match states.(idx) with
         | None -> Some st
         | Some old -> Some (merge_state old st)) in
    set pc0 entry;
    let steps = ref 0 in
    let check_target pc d =
      let target = pc + 1 + d in
      if d < 0 then raise (Reject (Backward_jump { pc; target }));
      if target > stop then raise (Reject (Jump_out_of_block { pc; target }));
      target in
    let i = ref pc0 in
    while !i < stop do
      let pc = !i in
      (match states.(pc - pc0) with
       | None -> steps := sat_add !steps 1; incr i
       | Some st ->
         (match code.(pc) with
          | Loop (count, len) ->
            if count < 0 || len < 1 || pc + 1 + len > stop then
              raise (Reject (Bad_loop { pc }));
            (* No earlier jump may have targeted the body's interior:
               at run time the only way in is through this Loop. *)
            for b = pc + 1 to pc + len do
              if states.(b - pc0) <> None then
                raise (Reject (Jump_out_of_block { pc; target = b }))
            done;
            (* Iterate the body's entry state to a fixpoint: the state
               reaching iteration k+1 is the merge of the entry with
               iteration k's exit. The lattice only moves registers
               toward uninitialized, so this terminates in <= nregs+1
               rounds. *)
            let s = ref st in
            let body_steps = ref 0 in
            let stable = ref false in
            while not !stable do
              let fall, bsteps = block (pc + 1) (pc + 1 + len) !s in
              body_steps := bsteps;
              let exit = match fall with Some f -> f | None -> !s in
              let merged = merge_state !s exit in
              if state_equal merged !s then stable := true else s := merged
            done;
            steps :=
              sat_add !steps (sat_add 1 (sat_mul count (sat_add !body_steps 1)));
            set (pc + 1 + len) !s;
            i := pc + 1 + len
          | instr ->
            steps := sat_add !steps 1;
            (match instr with
             | Ldi (r, _) -> set (pc + 1) (write st pc r Rint)
             | Ldf (r, slot) ->
               if slot < 0 || slot >= nfields then
                 raise (Reject (Field_out_of_range { pc; slot; fields = nfields }));
               let _, fty = layout.l_fields.(slot) in
               let rt =
                 match fty with
                 | Ty.Int -> Rint
                 | Ty.Text -> Rtext
                 | ty -> raise (Reject (Ill_typed_field { pc; slot; ty })) in
               set (pc + 1) (write st pc r rt)
             | Ldb (r, off) | Ldw (r, off) ->
               if not has_payload then raise (Reject (No_payload { pc }));
               if off < 0 || off >= max_offset then
                 raise (Reject (Payload_out_of_range { pc; off }));
               set (pc + 1) (write st pc r Rint)
             | Len r ->
               if not has_payload then raise (Reject (No_payload { pc }));
               set (pc + 1) (write st pc r Rint)
             | Ldc (r, slot) ->
               if slot < 0 || slot >= ncaps then
                 raise (Reject (Cap_out_of_range { pc; slot; caps = ncaps }));
               set (pc + 1) (write st pc r (Rcap caps.(slot).cs_ty))
             | Mov (d, s) ->
               let t = read st pc s in
               set (pc + 1) (write st pc d t)
             | Add (d, a, b) | Sub (d, a, b) ->
               (match read st pc a with
                | Rint -> ()
                | t -> raise (Reject (Ill_typed { pc; expected = Rint; found = t })));
               (match read st pc b with
                | Rint -> ()
                | t -> raise (Reject (Ill_typed { pc; expected = Rint; found = t })));
               set (pc + 1) (write st pc d Rint)
             | And (d, a, b) | Or (d, a, b) ->
               let ta = read st pc a and tb = read st pc b in
               (match ta, tb with
                | Rint, Rint -> set (pc + 1) (write st pc d Rint)
                | Rbool, Rbool -> set (pc + 1) (write st pc d Rbool)
                | _ ->
                  raise (Reject (Ill_typed { pc; expected = ta; found = tb })))
             | Eq (d, a, b) ->
               let ta = read st pc a and tb = read st pc b in
               if not (rty_equal ta tb) then
                 raise (Reject (Ill_typed_compare { pc; left = ta; right = tb }));
               set (pc + 1) (write st pc d Rbool)
             | Lt (d, a, b) ->
               (match read st pc a with
                | Rint -> ()
                | t -> raise (Reject (Ill_typed { pc; expected = Rint; found = t })));
               (match read st pc b with
                | Rint -> ()
                | t -> raise (Reject (Ill_typed { pc; expected = Rint; found = t })));
               set (pc + 1) (write st pc d Rbool)
             | Not (d, s) ->
               (match read st pc s with
                | Rbool -> set (pc + 1) (write st pc d Rbool)
                | t -> raise (Reject (Ill_typed { pc; expected = Rbool; found = t })))
             | Jmp d -> set (check_target pc d) st
             | Jz (r, d) | Jnz (r, d) ->
               (match read st pc r with
                | Rbool | Rint -> ()
                | t -> raise (Reject (Ill_typed { pc; expected = Rbool; found = t })));
               set (check_target pc d) st;
               set (pc + 1) st
             | Ret r ->
               (match read st pc r with
                | Rbool | Rint -> ()
                | t -> raise (Reject (Ill_typed { pc; expected = Rbool; found = t })))
             | Loop _ -> assert false);
            incr i));
    done;
    (states.(stop - pc0), !steps) in
  try
    if n = 0 then raise (Reject Empty);
    if n > max_program then raise (Reject (Too_long n));
    let entry = Array.make nregs None in
    let fall, steps = block 0 n entry in
    if fall <> None then raise (Reject Missing_ret);
    if steps > budget then raise (Reject (Over_budget { steps; budget }));
    Ok steps
  with Reject e -> Error e

(* [Ebc.match_string] as first written, through lists: the instruction
   sequence the array-filling builder must reproduce. *)
let match_string s =
  let n = String.length s in
  let fail = [ Ldi (0, 0); Ret 0 ] in
  let len_check = [ Len 0; Ldi (1, n); Eq (2, 0, 1); Jnz (2, 2) ] @ fail in
  let char_checks =
    List.concat_map
      (fun i ->
        [ Ldb (0, i); Ldi (1, Char.code s.[i]); Eq (2, 0, 1); Jnz (2, 2) ]
        @ fail)
      (List.init n Fun.id) in
  Array.of_list (len_check @ char_checks @ [ Ldi (0, 1); Ret 0 ])

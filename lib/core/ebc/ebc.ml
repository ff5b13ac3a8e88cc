(* Extension bytecode with an install-time verifier. See ebc.mli for
   the model. The verifier is an abstract interpretation over register
   initialization and types; because jumps are forward-only and the
   sole back edge is the statically counted [Loop], a single in-order
   pass per block suffices and the step bound is a static sum. *)

type reg = int

let nregs = 8

type instr =
  | Ldi of reg * int
  | Ldf of reg * int
  | Ldb of reg * int
  | Ldw of reg * int
  | Len of reg
  | Ldc of reg * int
  | Mov of reg * reg
  | Add of reg * reg * reg
  | Sub of reg * reg * reg
  | And of reg * reg * reg
  | Or of reg * reg * reg
  | Eq of reg * reg * reg
  | Lt of reg * reg * reg
  | Not of reg * reg
  | Jmp of int
  | Jz of reg * int
  | Jnz of reg * int
  | Loop of int * int
  | Ret of reg

type program = instr array

type 'a payload = {
  p_buf : 'a -> Bytes.t;
  p_off : 'a -> int;
  p_len : 'a -> int;
}

type 'a layout = {
  l_name : string;
  l_fields : (string * Ty.t) array;
  l_read : 'a -> int -> int;
  l_payload : 'a payload option;
}

let layout ~name ?(fields = []) ?read ?payload () =
  { l_name = name;
    l_fields = Array.of_list fields;
    l_read = (match read with Some r -> r | None -> fun _ _ -> 0);
    l_payload = payload }

type cap_slot = {
  cs_ty : Ty.t;
  cs_read : unit -> int;
}

let cap_slot ~ty cap =
  { cs_ty = ty;
    cs_read = (fun () -> if Capability.is_valid cap then Capability.id cap else -1) }

type rty = Rint | Rbool | Rtext | Rcap of Ty.t

let rty_to_string = function
  | Rint -> "int"
  | Rbool -> "bool"
  | Rtext -> "text"
  | Rcap ty -> "cap<" ^ Ty.to_string ty ^ ">"

type error =
  | Empty
  | Too_long of int
  | Bad_register of { pc : int; reg : int }
  | Uninitialized of { pc : int; reg : int }
  | Field_out_of_range of { pc : int; slot : int; fields : int }
  | Ill_typed_field of { pc : int; slot : int; ty : Ty.t }
  | No_payload of { pc : int }
  | Payload_out_of_range of { pc : int; off : int }
  | Cap_out_of_range of { pc : int; slot : int; caps : int }
  | Ill_typed of { pc : int; expected : rty; found : rty }
  | Ill_typed_compare of { pc : int; left : rty; right : rty }
  | Backward_jump of { pc : int; target : int }
  | Jump_out_of_block of { pc : int; target : int }
  | Bad_loop of { pc : int }
  | Over_budget of { steps : int; budget : int }
  | Missing_ret
  | No_layout of string

let error_to_string = function
  | Empty -> "empty program"
  | Too_long n -> Printf.sprintf "program too long (%d instructions)" n
  | Bad_register { pc; reg } -> Printf.sprintf "pc %d: bad register r%d" pc reg
  | Uninitialized { pc; reg } ->
    Printf.sprintf "pc %d: read of uninitialized r%d" pc reg
  | Field_out_of_range { pc; slot; fields } ->
    Printf.sprintf "pc %d: field slot %d out of range (%d fields)" pc slot fields
  | Ill_typed_field { pc; slot; ty } ->
    Printf.sprintf "pc %d: field slot %d has unloadable type %s" pc slot
      (Ty.to_string ty)
  | No_payload { pc } -> Printf.sprintf "pc %d: event has no payload" pc
  | Payload_out_of_range { pc; off } ->
    Printf.sprintf "pc %d: payload offset %d out of range" pc off
  | Cap_out_of_range { pc; slot; caps } ->
    Printf.sprintf "pc %d: capability slot %d never granted (%d slots)" pc slot
      caps
  | Ill_typed { pc; expected; found } ->
    Printf.sprintf "pc %d: expected %s, found %s" pc (rty_to_string expected)
      (rty_to_string found)
  | Ill_typed_compare { pc; left; right } ->
    Printf.sprintf "pc %d: compare of %s against %s" pc (rty_to_string left)
      (rty_to_string right)
  | Backward_jump { pc; target } ->
    Printf.sprintf "pc %d: backward jump to %d" pc target
  | Jump_out_of_block { pc; target } ->
    Printf.sprintf "pc %d: jump to %d escapes its block" pc target
  | Bad_loop { pc } -> Printf.sprintf "pc %d: malformed loop" pc
  | Over_budget { steps; budget } ->
    Printf.sprintf "terminates in %d steps, over the %d-step budget" steps budget
  | Missing_ret -> "control can fall off the end without Ret"
  | No_layout ev -> Printf.sprintf "event %s published no layout" ev

type cert = { c_steps : int }

type 'a verified = {
  v_layout : 'a layout;
  v_caps : cap_slot array;
  v_code : program;        (* a private copy: the caller's array may change *)
  v_cert : cert;
}

let default_budget = 4096
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
    Ok { v_layout = layout; v_caps = caps; v_code = Array.copy code;
         v_cert = { c_steps = steps } }
  with Reject e -> Error e

let certificate v = v.v_cert

(* A compiled predicate's state, built once by [compile]: one register
   file reused by every run, and the payload view each run sets first.
   Reuse is sound for two reasons. The verifier rejects any read of a
   register no instruction on the path has written, so a run never
   sees a value left by the previous one. And a run never overlaps
   another run of the same predicate: its only calls out are layout
   and capability reads, which raise no events. *)
type 'a compiled = {
  code : program;
  read : 'a -> int -> int;
  caps : cap_slot array;
  regs : int array;
  mutable buf : Bytes.t;
  mutable base : int;
  mutable len : int;
}

(* The trusted-fast interpreter: no register bounds checks, no step
   counting — the certificate already proved both, for exactly this
   layout, these slots and this code. Payload reads keep their dynamic
   length clamp (part of the verified semantics, like a BPF packet read
   beyond the frame yielding 0). A top-level loop, so a run allocates
   nothing. Returns -1 when control falls off [stop]; 0/1 for Ret. *)
let ( .%() ) (regs : int array) r = Array.unsafe_get regs r
let ( .%()<- ) (regs : int array) r v = Array.unsafe_set regs r v

let rec exec k arg pc stop =
  if pc >= stop then -1
  else
    let regs = k.regs in
    match Array.unsafe_get k.code pc with
    | Ldi (r, v) -> regs.%(r) <- v; exec k arg (pc + 1) stop
    | Ldf (r, slot) -> regs.%(r) <- k.read arg slot; exec k arg (pc + 1) stop
    | Ldb (r, off) ->
      regs.%(r) <-
        (if off < k.len then Char.code (Bytes.unsafe_get k.buf (k.base + off))
         else 0);
      exec k arg (pc + 1) stop
    | Ldw (r, off) ->
      regs.%(r) <-
        (if off + 1 < k.len then
           Char.code (Bytes.unsafe_get k.buf (k.base + off))
           lor (Char.code (Bytes.unsafe_get k.buf (k.base + off + 1)) lsl 8)
         else 0);
      exec k arg (pc + 1) stop
    | Len r -> regs.%(r) <- k.len; exec k arg (pc + 1) stop
    | Ldc (r, slot) ->
      regs.%(r) <- (Array.unsafe_get k.caps slot).cs_read ();
      exec k arg (pc + 1) stop
    | Mov (d, s) -> regs.%(d) <- regs.%(s); exec k arg (pc + 1) stop
    | Add (d, a, b) -> regs.%(d) <- regs.%(a) + regs.%(b); exec k arg (pc + 1) stop
    | Sub (d, a, b) -> regs.%(d) <- regs.%(a) - regs.%(b); exec k arg (pc + 1) stop
    | And (d, a, b) ->
      regs.%(d) <- regs.%(a) land regs.%(b); exec k arg (pc + 1) stop
    | Or (d, a, b) -> regs.%(d) <- regs.%(a) lor regs.%(b); exec k arg (pc + 1) stop
    | Eq (d, a, b) ->
      regs.%(d) <- (if regs.%(a) = regs.%(b) then 1 else 0);
      exec k arg (pc + 1) stop
    | Lt (d, a, b) ->
      regs.%(d) <- (if regs.%(a) < regs.%(b) then 1 else 0);
      exec k arg (pc + 1) stop
    | Not (d, s) ->
      regs.%(d) <- (if regs.%(s) = 0 then 1 else 0); exec k arg (pc + 1) stop
    | Jmp d -> exec k arg (pc + 1 + d) stop
    | Jz (r, d) -> exec k arg (if regs.%(r) = 0 then pc + 1 + d else pc + 1) stop
    | Jnz (r, d) -> exec k arg (if regs.%(r) <> 0 then pc + 1 + d else pc + 1) stop
    | Loop (count, len) ->
      let bstop = pc + 1 + len in
      let res = ref (-1) in
      let i = ref 0 in
      while !res = -1 && !i < count do
        res := exec k arg (pc + 1) bstop;
        incr i
      done;
      if !res >= 0 then !res else exec k arg bstop stop
    | Ret r -> if regs.%(r) <> 0 then 1 else 0

let compile { v_layout = layout; v_caps = caps; v_code = code; _ } =
  let k =
    { code; read = layout.l_read; caps; regs = Array.make nregs 0;
      buf = Bytes.empty; base = 0; len = 0 } in
  let stop = Array.length code in
  let uses_payload =
    Array.exists
      (function Ldb _ | Ldw _ | Len _ -> true | _ -> false)
      code in
  match layout.l_payload with
  | Some p when uses_payload ->
    fun arg ->
      k.buf <- p.p_buf arg; k.base <- p.p_off arg; k.len <- p.p_len arg;
      exec k arg 0 stop = 1
  | Some _ | None -> fun arg -> exec k arg 0 stop = 1

(* Checked reference interpreter with a step counter: the oracle the
   certificate is tested against. *)
let run_counted ~layout code arg =
  let buf, base, len =
    match layout.l_payload with
    | Some p -> (p.p_buf arg, p.p_off arg, p.p_len arg)
    | None -> (Bytes.empty, 0, 0) in
  let regs = Array.make nregs 0 in
  let steps = ref 0 in
  let stop0 = Array.length code in
  let rec go pc stop =
    if pc >= stop then -1
    else begin
      incr steps;
      match code.(pc) with
      | Ldi (r, v) -> regs.(r) <- v; go (pc + 1) stop
      | Ldf (r, slot) -> regs.(r) <- layout.l_read arg slot; go (pc + 1) stop
      | Ldb (r, off) ->
        regs.(r) <-
          (if off < len then Char.code (Bytes.get buf (base + off)) else 0);
        go (pc + 1) stop
      | Ldw (r, off) ->
        regs.(r) <-
          (if off + 1 < len then
             Char.code (Bytes.get buf (base + off))
             lor (Char.code (Bytes.get buf (base + off + 1)) lsl 8)
           else 0);
        go (pc + 1) stop
      | Len r -> regs.(r) <- len; go (pc + 1) stop
      | Ldc _ -> invalid_arg "Ebc.run_counted: no capability slots"
      | Mov (d, s) -> regs.(d) <- regs.(s); go (pc + 1) stop
      | Add (d, a, b) -> regs.(d) <- regs.(a) + regs.(b); go (pc + 1) stop
      | Sub (d, a, b) -> regs.(d) <- regs.(a) - regs.(b); go (pc + 1) stop
      | And (d, a, b) -> regs.(d) <- regs.(a) land regs.(b); go (pc + 1) stop
      | Or (d, a, b) -> regs.(d) <- regs.(a) lor regs.(b); go (pc + 1) stop
      | Eq (d, a, b) -> regs.(d) <- (if regs.(a) = regs.(b) then 1 else 0);
        go (pc + 1) stop
      | Lt (d, a, b) -> regs.(d) <- (if regs.(a) < regs.(b) then 1 else 0);
        go (pc + 1) stop
      | Not (d, s) -> regs.(d) <- (if regs.(s) = 0 then 1 else 0);
        go (pc + 1) stop
      | Jmp d -> go (pc + 1 + d) stop
      | Jz (r, d) -> go (if regs.(r) = 0 then pc + 1 + d else pc + 1) stop
      | Jnz (r, d) -> go (if regs.(r) <> 0 then pc + 1 + d else pc + 1) stop
      | Loop (count, len_) ->
        let bstop = pc + 1 + len_ in
        let res = ref (-1) in
        let k = ref 0 in
        while !res = -1 && !k < count do
          res := go (pc + 1) bstop;
          incr k
        done;
        if !res >= 0 then !res else go bstop stop
      | Ret r -> if regs.(r) <> 0 then 1 else 0
    end in
  (* Bind before building the pair: a tuple's components evaluate
     right to left, so [(go 0 stop0 = 1, !steps)] would read the
     counter before the program ran. *)
  let r = go 0 stop0 in
  (r = 1, !steps)

(* Install-time cost model: one linear verifier pass over the program.
   Cheap enough to pay per install, never per event. *)
let verify_cycles (c : Spin_machine.Cost.t) code =
  c.ebc_verify_fixed + (c.ebc_verify_per_instr * Array.length code)

(* Builders for the predicate shapes the facades compile. Register
   discipline: r0 scratch loads, r1 immediates, r2 accumulator. *)

let match_field ~slot v =
  [| Ldf (0, slot); Ldi (1, v); Eq (2, 0, 1); Ret 2 |]

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

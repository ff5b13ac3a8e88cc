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

let reject e = raise (Reject e)

(* Saturating arithmetic so nested Loop multipliers can't overflow. *)
let sat_cap = 1 lsl 40
let sat_add a b = let s = a + b in if s < 0 || s > sat_cap then sat_cap else s
let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if a > sat_cap / b then sat_cap
  else a * b

(* The verifier's state is one [Bytes] of rows: a 16-bit type code per
   register, then a reached byte. Codes are 0 uninitialized, 1 int,
   2 bool, 3 text and 4 + k for the k-th capability type distinct per
   [Ty.equal]; an [Ldc] meets at most one new type, so 16 bits hold
   them. Rows 0 to n are the pcs and the end. Each loop depth owns two
   more: its entry state and its body's fall-through, which cannot be
   the outer block's row at that pc: an earlier jump may reach it. *)
type 'a vstate = {
  s_code : program;
  s_layout : 'a layout;
  s_caps : cap_slot array;
  s_tys : Ty.t array;                   (* the type of code 4 + k *)
  mutable s_ntys : int;
  s_rows : Bytes.t;
}

let c_int = 1 and c_bool = 2 and c_text = 3
let row_bytes = (2 * nregs) + 1
let at row r = (row * row_bytes) + (2 * r)
let code_at s row r = Bytes.get_uint16_le s.s_rows (at row r)
let set_code s row r c = Bytes.set_uint16_le s.s_rows (at row r) c
let reached s row = Bytes.get_uint8 s.s_rows (at row nregs) = 1
let set_reached s row b = Bytes.set_uint8 s.s_rows (at row nregs) (Bool.to_int b)

let rty_of s = function
  | 1 -> Rint | 2 -> Rbool | 3 -> Rtext | c -> Rcap s.s_tys.(c - 4)

let rec cap_code s ty k =
  if k = s.s_ntys then (s.s_tys.(k) <- ty; s.s_ntys <- k + 1);
  if Ty.equal s.s_tys.(k) ty then 4 + k else cap_code s ty (k + 1)

(* The 8-byte moves of [copy_row], as primitives: the word read
   passes to the write unboxed. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* [copy_row] moves a row as 16 bytes of register codes (8 registers)
   and a reached byte. *)
let () = assert (row_bytes = 17)

(* Row [src] over row [dst]: two 64-bit moves, then the reached byte. *)
let copy_row s src dst =
  let rows = s.s_rows and a = at src 0 and b = at dst 0 in
  set64 rows b (get64 rows a);
  set64 rows (b + 8) (get64 rows (a + 8));
  Bytes.set_uint8 rows (b + 16) (Bytes.get_uint8 rows (a + 16))

(* Control passes from the reached row [src] to [dst], register [reg]
   (-1 for none) set to [c]: a first arrival copies the row, later ones
   keep the registers all paths agree on. Returns whether [dst] changed. *)
let flow s src dst reg c =
  if not (reached s dst) then begin
    copy_row s src dst;
    if reg >= 0 then set_code s dst reg c;
    true
  end
  else begin
    let changed = ref false in
    for r = 0 to nregs - 1 do
      let v = if r = reg then c else code_at s src r in
      if code_at s dst r <> v && code_at s dst r <> 0 then
        (set_code s dst r 0; changed := true)
    done;
    !changed
  end

let jump s src dst = ignore (flow s src dst (-1) 0)

let row_of stop last pc = if pc = stop then last else pc

let check_reg pc r =
  if r < 0 || r >= nregs then reject (Bad_register { pc; reg = r })

let read s pc r =
  check_reg pc r;
  let c = code_at s pc r in
  if c = 0 then reject (Uninitialized { pc; reg = r });
  c

let write s pc stop last r c =
  check_reg pc r;
  ignore (flow s pc (row_of stop last (pc + 1)) r c)

let expect s pc c want =
  if c <> want then
    reject (Ill_typed { pc; expected = rty_of s want; found = rty_of s c })

(* Branches and [Ret] test an int or a bool. *)
let expect_test s pc c = if c <> c_int then expect s pc c c_bool

let check_target pc stop d =
  let target = pc + 1 + d in
  if d < 0 then reject (Backward_jump { pc; target });
  if target > stop then reject (Jump_out_of_block { pc; target });
  target

(* One reached instruction other than [Loop], at row [pc]. *)
let step s pc stop last = function
  | Ldi (r, _) -> write s pc stop last r c_int
  | Ldf (r, slot) ->
    let nfields = Array.length s.s_layout.l_fields in
    if slot < 0 || slot >= nfields then
      reject (Field_out_of_range { pc; slot; fields = nfields });
    (match snd s.s_layout.l_fields.(slot) with
     | Ty.Int -> write s pc stop last r c_int
     | Ty.Text -> write s pc stop last r c_text
     | ty -> reject (Ill_typed_field { pc; slot; ty }))
  | Ldb (r, off) | Ldw (r, off) ->
    if s.s_layout.l_payload = None then reject (No_payload { pc });
    if off < 0 || off >= max_offset then
      reject (Payload_out_of_range { pc; off });
    write s pc stop last r c_int
  | Len r ->
    if s.s_layout.l_payload = None then reject (No_payload { pc });
    write s pc stop last r c_int
  | Ldc (r, slot) ->
    let ncaps = Array.length s.s_caps in
    if slot < 0 || slot >= ncaps then
      reject (Cap_out_of_range { pc; slot; caps = ncaps });
    write s pc stop last r (cap_code s s.s_caps.(slot).cs_ty 0)
  | Mov (d, src) -> write s pc stop last d (read s pc src)
  | Add (d, a, b) | Sub (d, a, b) | Lt (d, a, b) as i ->
    expect s pc (read s pc a) c_int;
    expect s pc (read s pc b) c_int;
    write s pc stop last d (match i with Lt _ -> c_bool | _ -> c_int)
  | And (d, a, b) | Or (d, a, b) ->
    let ca = read s pc a in
    let cb = read s pc b in
    if ca <> cb || (ca <> c_int && ca <> c_bool) then
      reject (Ill_typed { pc; expected = rty_of s ca; found = rty_of s cb });
    write s pc stop last d ca
  | Eq (d, a, b) ->
    let ca = read s pc a in
    let cb = read s pc b in
    if ca <> cb then
      reject (Ill_typed_compare { pc; left = rty_of s ca; right = rty_of s cb });
    write s pc stop last d c_bool
  | Not (d, src) ->
    expect s pc (read s pc src) c_bool;
    write s pc stop last d c_bool
  | Jmp d -> jump s pc (row_of stop last (check_target pc stop d))
  | Jz (r, d) | Jnz (r, d) ->
    expect_test s pc (read s pc r);
    jump s pc (row_of stop last (check_target pc stop d));
    jump s pc (row_of stop last (pc + 1))
  | Ret r -> expect_test s pc (read s pc r)
  | Loop _ -> assert false

(* Verify a block ending at [stop] from [pc] on, adding a saturating
   bound on executed steps to [steps]. Its end row is [last], reached
   iff control can fall off the block, and its loops use the rows after
   [last]. Jumps stay within the block and may not land inside a
   reachable Loop body: only its Loop instruction enters it. *)
let rec walk s pc stop last steps =
  if pc >= stop then steps
  else if not (reached s pc) then walk s (pc + 1) stop last (sat_add steps 1)
  else
    match s.s_code.(pc) with
    | Loop (count, len) ->
      if count < 0 || len < 1 || pc + 1 + len > stop then
        reject (Bad_loop { pc });
      (* The body's rows are this block's, and no earlier jump may have
         reached them: at run time the only way in is this Loop. *)
      for b = pc + 1 to pc + len do
        if reached s b then reject (Jump_out_of_block { pc; target = b })
      done;
      let entry = last + 1 in
      set_reached s entry false;
      jump s pc entry;
      let body = fixpoint s (pc + 1) (pc + 1 + len) entry in
      jump s entry (row_of stop last (pc + 1 + len));
      walk s (pc + 1 + len) stop last
        (sat_add steps (sat_add 1 (sat_mul count (sat_add body 1))))
    | instr ->
      step s pc stop last instr;
      walk s (pc + 1) stop last (sat_add steps 1)

(* Iterate the body's entry state to a fixpoint, merging in each
   round's exit. Merges only move registers toward uninitialized, so
   this stops within nregs+1 rounds. Returns the body's step bound. *)
and fixpoint s pc0 stop entry =
  for row = pc0 to stop - 1 do set_reached s row false done;
  set_reached s (entry + 1) false;
  jump s entry pc0;
  let steps = walk s pc0 stop (entry + 1) 0 in
  if reached s (entry + 1) && flow s (entry + 1) entry (-1) 0 then
    fixpoint s pc0 stop entry
  else steps

let verify ~layout ?(caps = [||]) ?(budget = default_budget) code =
  let n = Array.length code in
  try
    if n = 0 then reject Empty;
    if n > max_program then reject (Too_long n);
    let loops =
      Array.fold_left (fun k i -> match i with Loop _ -> k + 1 | _ -> k) 0 code in
    let s =
      { s_code = code; s_layout = layout; s_caps = caps;
        s_tys = Array.make (min n (Array.length caps)) Ty.Unit; s_ntys = 0;
        s_rows = Bytes.make ((n + 1 + (2 * loops)) * row_bytes) '\000' } in
    set_reached s 0 true;
    let steps = walk s 0 n n 0 in
    if reached s n then reject Missing_ret;
    if steps > budget then reject (Over_budget { steps; budget });
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
  let code = Array.make ((6 * n) + 8) (Ret 0) in
  (* The length, then each byte: load it into r0, compare it with an
     immediate, and skip the failing [Ldi (0, 0); Ret 0] when equal. *)
  for i = -1 to n - 1 do
    let at = 6 * (i + 1) in
    code.(at) <- (if i < 0 then Len 0 else Ldb (0, i));
    code.(at + 1) <- Ldi (1, if i < 0 then n else Char.code s.[i]);
    code.(at + 2) <- Eq (2, 0, 1);
    code.(at + 3) <- Jnz (2, 2);
    code.(at + 4) <- Ldi (0, 0)
  done;
  code.((6 * n) + 6) <- Ldi (0, 1);
  code

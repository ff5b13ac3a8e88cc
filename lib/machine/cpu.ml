type trap =
  | Syscall of { number : int; args : int array }
  | Mem_fault of { va : int; fault : Mmu.fault }
  | Illegal

exception Unhandled_trap of trap

type trap_stats = {
  mutable entries : int;
  mutable exits : int;
  mutable depth : int;
}

type t = {
  id : int;
  clock : Clock.t;
  mmu : Mmu.t;
  mutable ctx : Mmu.context option;
  mutable handler : (trap -> int) option;
  traps : trap_stats;
}

let create ?(id = 0) clock mmu =
  { id; clock; mmu; ctx = None; handler = None;
    traps = { entries = 0; exits = 0; depth = 0 } }

let id t = t.id

let set_trap_handler t h = t.handler <- Some h

(* Entry and exit costs are charged symmetrically: the return-from-trap
   sequence (pipeline drain) executes whether the handler returns or
   raises, so [trap_exit] runs on both arms. A handler that raises used
   to skip it, which undercharged every fault path that aborts. *)
let trap_exit t =
  t.traps.depth <- t.traps.depth - 1;
  t.traps.exits <- t.traps.exits + 1;
  Clock.charge t.clock (Clock.cost t.clock).Cost.trap_exit

let trap t tr =
  match t.handler with
  | None -> raise (Unhandled_trap tr)
  | Some handler ->
    Clock.charge t.clock (Clock.cost t.clock).Cost.trap_entry;
    t.traps.entries <- t.traps.entries + 1;
    t.traps.depth <- t.traps.depth + 1;
    match handler tr with
    | r -> trap_exit t; r
    | exception e -> trap_exit t; raise e

let syscall t ~number ~args = trap t (Syscall { number; args })

let set_context t ctx =
  let same =
    match t.ctx, ctx with
    | None, None -> true
    | Some a, Some b -> Mmu.context_id a = Mmu.context_id b
    | _ -> false in
  if not same then begin
    Clock.charge t.clock (Clock.cost t.clock).Cost.addr_space_switch;
    t.ctx <- ctx
  end

let context t = t.ctx

let max_fault_retries = 16

(* Top level, not a local [let rec]: a closure over the access would be
   allocated by every load and store. *)
let rec resolve_in t ctx ~va access n =
  if n > max_fault_retries then
    raise (Unhandled_trap (Mem_fault { va; fault = Mmu.Page_not_present }));
  match Mmu.translate t.mmu ctx ~va access with
  | pa -> pa
  | exception Mmu.Fault fault ->
    ignore (trap t (Mem_fault { va; fault }));
    resolve_in t ctx ~va access (n + 1)

let resolve t ~va access =
  match t.ctx with
  | None -> raise (Unhandled_trap Illegal)
  | Some ctx -> resolve_in t ctx ~va access 0

let charge_access t = Clock.charge t.clock (Clock.cost t.clock).Cost.mem_access

let load_word t ~va =
  let pa = resolve t ~va Mmu.Read in
  charge_access t;
  Phys_mem.read_word (Mmu.mem t.mmu) ~pa

let store_word t ~va v =
  let pa = resolve t ~va Mmu.Write in
  charge_access t;
  Phys_mem.write_word (Mmu.mem t.mmu) ~pa v

let trap_stats t = { t.traps with entries = t.traps.entries }

type access = Read | Write

type fault =
  | Page_not_present
  | Protection_violation

exception Fault of fault

(* Raised as they are, so a fault allocates nothing either. *)
let not_present = Fault Page_not_present
let protection_violation = Fault Protection_violation

type pte = {
  mutable pfn : int;
  mutable prot : Addr.prot;
  mutable modified : bool;
}

type context = {
  id : int;
  table : (int, pte) Hashtbl.t;       (* vpn -> pte *)
}

(* A TLB entry's tag: (context id, vpn). A stored key is its entry's
   own and never changes; [probe] is the one key that lookups and
   drops overwrite, so only a fill allocates one. *)
type key = {
  mutable k_ctx : int;
  mutable k_vpn : int;
}

module Tlb = Hashtbl.Make (struct
  type t = key
  let equal a b = a.k_ctx = b.k_ctx && a.k_vpn = b.k_vpn
  let hash k = (k.k_ctx * 65599) + k.k_vpn
end)

type t = {
  clock : Clock.t;
  mem : Phys_mem.t;
  mutable next_ctx : int;
  mutable live_ctx : int;
  tlb : pte Tlb.t;
  tlb_fifo : key Queue.t;             (* insertion order, stale keys kept *)
  probe : key;
  tlb_capacity : int;
  mutable hits : int;
  mutable misses : int;
  (* SMP coherence: installed by the machine when it has more than one
     CPU. Runs after any operation that removes or narrows a
     translation (unmap, protect, context teardown) — other CPUs may
     hold the stale entry in their TLBs, so the initiator must shoot
     it down before the operation returns. [None] on uniprocessors. *)
  mutable shootdown : (unit -> unit) option;
}

let create clock mem = {
  clock; mem;
  next_ctx = 0;
  live_ctx = 0;
  tlb = Tlb.create 256;
  tlb_fifo = Queue.create ();
  probe = { k_ctx = 0; k_vpn = 0 };
  tlb_capacity = 128;
  hits = 0;
  misses = 0;
  shootdown = None;
}

let set_shootdown t f = t.shootdown <- f

let run_shootdown t =
  match t.shootdown with Some f -> f () | None -> ()

let mem t = t.mem

let charge_map t = Clock.charge t.clock (Clock.cost t.clock).Cost.mmu_map_op

let create_context t =
  let ctx = { id = t.next_ctx; table = Hashtbl.create 64 } in
  t.next_ctx <- t.next_ctx + 1;
  t.live_ctx <- t.live_ctx + 1;
  charge_map t;
  ctx

let context_id ctx = ctx.id

let contexts t = t.live_ctx

let probe t ctx vpn =
  let k = t.probe in
  k.k_ctx <- ctx.id;
  k.k_vpn <- vpn;
  k

(* The stale key stays in the FIFO; eviction skips missing keys. *)
let tlb_drop t ctx vpn = Tlb.remove t.tlb (probe t ctx vpn)

let tlb_insert t ctx vpn pte =
  while Tlb.length t.tlb >= t.tlb_capacity do
    if Queue.is_empty t.tlb_fifo then Tlb.reset t.tlb
    else Tlb.remove t.tlb (Queue.take t.tlb_fifo)
  done;
  let key = { k_ctx = ctx.id; k_vpn = vpn } in
  Tlb.replace t.tlb key pte;
  Queue.add key t.tlb_fifo

let destroy_context t ctx =
  Hashtbl.iter (fun vpn _ -> tlb_drop t ctx vpn) ctx.table;
  Hashtbl.reset ctx.table;
  t.live_ctx <- t.live_ctx - 1;
  charge_map t;
  run_shootdown t

let map t ctx ~vpn ~pfn ~prot =
  if pfn < 0 || pfn >= Phys_mem.frames t.mem then
    invalid_arg "Mmu.map: bad frame number";
  let pte = { pfn; prot; modified = false } in
  Hashtbl.replace ctx.table vpn pte;
  tlb_drop t ctx vpn;
  charge_map t

let unmap t ctx ~vpn =
  Hashtbl.remove ctx.table vpn;
  tlb_drop t ctx vpn;
  charge_map t;
  (* The unmap must not return while another CPU can still translate
     through the dead entry: shoot it down now, synchronously. *)
  run_shootdown t

let narrows ~old_prot ~prot =
  let open Addr in
  (old_prot.read && not prot.read)
  || (old_prot.write && not prot.write)
  || (old_prot.execute && not prot.execute)

let protect ?(charge = true) t ctx ~vpn ~prot =
  match Hashtbl.find ctx.table vpn with
  | exception Not_found -> false
  | pte ->
    let old_prot = pte.prot in
    pte.prot <- prot;
    tlb_drop t ctx vpn;
    if charge then charge_map t;
    (* Only a narrowing needs machine-wide visibility before returning:
       a remote TLB entry with stale, {e wider} rights is a protection
       hole, but a stale narrower entry merely re-faults and refills.
       Widening therefore skips the shootdown — the lazy-unprotect
       economics of Table 4 survive on a multiprocessor. *)
    if narrows ~old_prot ~prot then run_shootdown t;
    true

let lookup ctx ~vpn = Hashtbl.find_opt ctx.table vpn

let access_right = function
  | Read -> `Read
  | Write -> `Write

let translate t ctx ~va access =
  let vpn = Addr.vpn_of_va va in
  let pte =
    match Tlb.find t.tlb (probe t ctx vpn) with
    | pte -> t.hits <- t.hits + 1; pte
    | exception Not_found ->
      t.misses <- t.misses + 1;
      Clock.charge t.clock (Clock.cost t.clock).Cost.tlb_fill;
      match Hashtbl.find ctx.table vpn with
      | pte -> tlb_insert t ctx vpn pte; pte
      | exception Not_found -> raise_notrace not_present in
  if not (Addr.prot_allows pte.prot (access_right access)) then
    raise_notrace protection_violation;
  if access = Write then pte.modified <- true;
  Addr.pa_of_page pte.pfn + Addr.offset_of_va va

let tlb_stats t = (t.hits, t.misses)

type access = Read | Write

type fault =
  | Page_not_present
  | Protection_violation

type pte = {
  mutable pfn : int;
  mutable prot : Addr.prot;
  mutable modified : bool;
}

type context = {
  id : int;
  table : (int, pte) Hashtbl.t;       (* vpn -> pte *)
}

type t = {
  clock : Clock.t;
  mem : Phys_mem.t;
  mutable next_ctx : int;
  mutable live_ctx : int;
  tlb : (int * int, pte) Hashtbl.t;   (* (ctx id, vpn) -> pte *)
  tlb_fifo : (int * int) Queue.t;
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
  tlb = Hashtbl.create 256;
  tlb_fifo = Queue.create ();
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

let tlb_drop t key =
  if Hashtbl.mem t.tlb key then begin
    Hashtbl.remove t.tlb key;
    (* leave the stale key in the FIFO; eviction skips missing keys *)
  end

let tlb_insert t key pte =
  while Hashtbl.length t.tlb >= t.tlb_capacity do
    match Queue.take_opt t.tlb_fifo with
    | None -> Hashtbl.reset t.tlb
    | Some old -> Hashtbl.remove t.tlb old
  done;
  Hashtbl.replace t.tlb key pte;
  Queue.add key t.tlb_fifo

let destroy_context t ctx =
  Hashtbl.iter (fun vpn _ -> tlb_drop t (ctx.id, vpn)) ctx.table;
  Hashtbl.reset ctx.table;
  t.live_ctx <- t.live_ctx - 1;
  charge_map t;
  run_shootdown t

let map t ctx ~vpn ~pfn ~prot =
  if pfn < 0 || pfn >= Phys_mem.frames t.mem then
    invalid_arg "Mmu.map: bad frame number";
  let pte = { pfn; prot; modified = false } in
  Hashtbl.replace ctx.table vpn pte;
  tlb_drop t (ctx.id, vpn);
  charge_map t

let unmap t ctx ~vpn =
  Hashtbl.remove ctx.table vpn;
  tlb_drop t (ctx.id, vpn);
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
  match Hashtbl.find_opt ctx.table vpn with
  | None -> false
  | Some pte ->
    let old_prot = pte.prot in
    pte.prot <- prot;
    tlb_drop t (ctx.id, vpn);
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
  let key = (ctx.id, vpn) in
  let pte =
    match Hashtbl.find_opt t.tlb key with
    | Some pte -> t.hits <- t.hits + 1; Some pte
    | None ->
      t.misses <- t.misses + 1;
      Clock.charge t.clock (Clock.cost t.clock).Cost.tlb_fill;
      match Hashtbl.find_opt ctx.table vpn with
      | Some pte -> tlb_insert t key pte; Some pte
      | None -> None in
  match pte with
  | None -> Error Page_not_present
  | Some pte ->
    if not (Addr.prot_allows pte.prot (access_right access)) then
      Error Protection_violation
    else begin
      if access = Write then pte.modified <- true;
      Ok (Addr.pa_of_page pte.pfn + Addr.offset_of_va va)
    end

let tlb_stats t = (t.hits, t.misses)

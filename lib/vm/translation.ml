module Machine = Spin_machine.Machine
module Mmu = Spin_machine.Mmu
module Cpu = Spin_machine.Cpu
module Addr = Spin_machine.Addr
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Trace = Spin_machine.Trace
module Capability = Spin_core.Capability
module Dispatcher = Spin_core.Dispatcher

type context = {
  id : int;
  owner : string;
  mmu_ctx : Mmu.context;
  mutable regions : Virt_addr.region list;
  mutable live : bool;
}

type fault = {
  ctx : context;
  va : int;
}

type stats = {
  mutable faults_not_present : int;
  mutable faults_bad_address : int;
  mutable faults_protection : int;
  mutable invalidations : int;
}

type t = {
  machine : Machine.t;
  page_not_present : (fault, unit) Dispatcher.event;
  bad_address : (fault, unit) Dispatcher.event;
  protection_fault : (fault, unit) Dispatcher.event;
  contexts_tbl : (int, context) Hashtbl.t;
  rmap : (int, (context * int) list ref) Hashtbl.t;  (* pfn -> mappings *)
  stats : stats;
}

let declare_fault_event dispatcher name =
  (* Default implementation: an unhandled fault is simply counted by
     the raiser; real policy comes from handlers. *)
  Dispatcher.declare dispatcher ~name ~owner:"Translation"
    (fun (_ : fault) -> ())

let create machine dispatcher phys =
  let t = {
    machine;
    page_not_present = declare_fault_event dispatcher "Translation.PageNotPresent";
    bad_address = declare_fault_event dispatcher "Translation.BadAddress";
    protection_fault = declare_fault_event dispatcher "Translation.ProtectionFault";
    contexts_tbl = Hashtbl.create 16;
    rmap = Hashtbl.create 256;
    stats =
      { faults_not_present = 0; faults_bad_address = 0;
        faults_protection = 0; invalidations = 0 };
  } in
  (* The translation service ultimately invalidates any mappings to a
     reclaimed page (paper, section 4.1). *)
  Phys_addr.add_invalidate phys (fun page ->
    let run = Phys_addr.page_run page in
    for pfn = run.Phys_addr.first_pfn
      to run.Phys_addr.first_pfn + run.Phys_addr.npages - 1 do
      match Hashtbl.find_opt t.rmap pfn with
      | None -> ()
      | Some entries ->
        List.iter
          (fun (ctx, vpn) ->
            if ctx.live then begin
              Mmu.unmap t.machine.Machine.mmu ctx.mmu_ctx ~vpn;
              t.stats.invalidations <- t.stats.invalidations + 1
            end)
          !entries;
        Hashtbl.remove t.rmap pfn
    done);
  t

let page_not_present t = t.page_not_present
let bad_address t = t.bad_address
let protection_fault t = t.protection_fault

let charge t c = Clock.charge t.machine.Machine.clock c
let cost t = Clock.cost t.machine.Machine.clock

let create_context t ~owner =
  charge t (cost t).Cost.map_service;
  let mmu_ctx = Mmu.create_context t.machine.Machine.mmu in
  let ctx = { id = Mmu.context_id mmu_ctx; owner; mmu_ctx;
              regions = []; live = true } in
  Hashtbl.replace t.contexts_tbl ctx.id ctx;
  ctx

let destroy_context t ctx =
  if ctx.live then begin
    ctx.live <- false;
    Mmu.destroy_context t.machine.Machine.mmu ctx.mmu_ctx;
    Hashtbl.remove t.contexts_tbl ctx.id;
    (* Drop reverse-map entries pointing at this context. *)
    Hashtbl.iter
      (fun _ entries ->
        entries := List.filter (fun (c, _) -> c.id <> ctx.id) !entries)
      t.rmap
  end

let context_id ctx = ctx.id

let attach_region ctx region =
  if not (List.mem region ctx.regions) then
    ctx.regions <- region :: ctx.regions

let rmap_add t pfn ctx vpn =
  let entries =
    match Hashtbl.find_opt t.rmap pfn with
    | Some e -> e
    | None -> let e = ref [] in Hashtbl.replace t.rmap pfn e; e in
  entries := (ctx, vpn) :: !entries

let rmap_remove t pfn ctx vpn =
  match Hashtbl.find_opt t.rmap pfn with
  | None -> ()
  | Some entries ->
    entries := List.filter (fun (c, v) -> not (c.id = ctx.id && v = vpn)) !entries

let add_mapping t ctx vaddr page prot =
  let region = Virt_addr.region vaddr in
  let run = Phys_addr.page_run page in
  let n = Virt_addr.npages region in
  if n <> run.Phys_addr.npages then
    invalid_arg "Translation.add_mapping: region and run sizes differ";
  attach_region ctx region;
  for i = 0 to n - 1 do
    charge t (cost t).Cost.map_service;
    let vpn = Addr.vpn_of_va (region.Virt_addr.va + (i * Addr.page_size)) in
    let pfn = run.Phys_addr.first_pfn + i in
    (* Replace any previous mapping of this vpn. *)
    (match Mmu.lookup ctx.mmu_ctx ~vpn with
     | Some pte -> rmap_remove t pte.Mmu.pfn ctx vpn
     | None -> ());
    Mmu.map t.machine.Machine.mmu ctx.mmu_ctx ~vpn ~pfn ~prot;
    rmap_add t pfn ctx vpn
  done

let protect t ctx ~va ~npages prot =
  charge t (cost t).Cost.protect_base;
  let vpn0 = Addr.vpn_of_va va in
  let changed = ref 0 in
  for i = 0 to npages - 1 do
    charge t (cost t).Cost.protect_per_page;
    if Mmu.protect t.machine.Machine.mmu ctx.mmu_ctx ~vpn:(vpn0 + i) ~prot then
      incr changed
  done;
  !changed

let is_dirty t ctx ~va =
  charge t (cost t).Cost.dirty_query;
  match Mmu.lookup ctx.mmu_ctx ~vpn:(Addr.vpn_of_va va) with
  | Some pte -> pte.Mmu.modified
  | None -> false

let rec in_regions va = function
  | [] -> false
  | r :: rest ->
    (va >= r.Virt_addr.va && va < r.Virt_addr.va + r.Virt_addr.bytes)
    || in_regions va rest

(* A fault's trace mark; the caller tests [Trace.on], so a fault with
   tracing off builds nothing for it. *)
let mark tr ctx va kind =
  Trace.instant tr ~cat:"vm" ~name:kind
    ~args:[ ("va", Printf.sprintf "0x%x" va);
            ("ctx", string_of_int ctx.id);
            ("owner", ctx.owner) ] ()

let handle_trap t trap =
  match trap with
  | Cpu.Mem_fault { va; fault } ->
    charge t (cost t).Cost.fault_classify;
    (* The fault context is the MMU context of the faulting CPU. *)
    (match Cpu.context t.machine.Machine.cpu with
     | None -> false
     | Some mmu_ctx ->
       (match Hashtbl.find t.contexts_tbl (Mmu.context_id mmu_ctx) with
        | exception Not_found -> false
        | ctx ->
          let f = { ctx; va } in
          let tr = Trace.of_clock t.machine.Machine.clock in
          (match fault with
           | Mmu.Protection_violation ->
             t.stats.faults_protection <- t.stats.faults_protection + 1;
             if Trace.on tr then mark tr ctx va "protection_fault";
             Dispatcher.raise_default t.protection_fault () f
           | Mmu.Page_not_present ->
             if in_regions va ctx.regions then begin
               t.stats.faults_not_present <- t.stats.faults_not_present + 1;
               if Trace.on tr then mark tr ctx va "page_not_present";
               Dispatcher.raise_default t.page_not_present () f
             end else begin
               t.stats.faults_bad_address <- t.stats.faults_bad_address + 1;
               if Trace.on tr then mark tr ctx va "bad_address";
               Dispatcher.raise_default t.bad_address () f
             end);
          true))
  | Cpu.Syscall _ | Cpu.Illegal -> false

let mmu_context ctx = ctx.mmu_ctx

let contexts t = Hashtbl.length t.contexts_tbl

let stats t = { t.stats with invalidations = t.stats.invalidations }

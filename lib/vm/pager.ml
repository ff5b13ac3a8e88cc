module Addr = Spin_machine.Addr
module Mmu = Spin_machine.Mmu
module Machine = Spin_machine.Machine
module Phys_mem = Spin_machine.Phys_mem
module Disk = Spin_machine.Disk_dev
module Intr = Spin_machine.Intr
module Dispatcher = Spin_core.Dispatcher
module Sched = Spin_sched.Sched

let owner = "Pager"

let blocks_per_page = Addr.page_size / Disk.block_size

type backed_page = {
  block : int;                    (* first backing block *)
  mutable frame : Phys_addr.page option;
  mutable written : bool;         (* backing store has real contents *)
}

type region_entry = {
  ctx_id : int;
  ctx : Translation.context;
  region : Virt_addr.region;
  pages : backed_page array;
}

type t = {
  vm : Vm.t;
  sched : Sched.t;
  disk : Disk.t;
  mutable regions : region_entry list;
  mutable next_block : int;
  waiters : (int, Spin_sched.Strand.t) Hashtbl.t;  (* first block -> strand *)
  reads : (int, Bytes.t) Hashtbl.t;                (* completed read data *)
  mutable faults : int;
  mutable pageouts : int;
}

let find_page t ctx_id va =
  let vpn = Addr.vpn_of_va va in
  List.find_map
    (fun e ->
      if e.ctx_id <> ctx_id then None
      else begin
        let first = Addr.vpn_of_va e.region.Virt_addr.va in
        let idx = vpn - first in
        if idx >= 0 && idx < Array.length e.pages then Some (e, idx) else None
      end)
    t.regions

(* Synchronous disk I/O from strand context; wakeups may be spurious,
   so wait until the completion handler removes us from the table. *)
let disk_io t ~write ~block (data : Bytes.t) =
  let me = Sched.self t.sched in
  Hashtbl.replace t.waiters block me;
  if write then Disk.submit_write t.disk ~block data
  else Disk.submit_read t.disk ~block ~count:blocks_per_page;
  while Hashtbl.mem t.waiters block do
    Sched.block_current t.sched
  done

let handle_fault t fault =
  let ctx = fault.Translation.ctx in
  match find_page t (Translation.context_id ctx) fault.Translation.va with
  | None -> ()
  | Some (entry, idx) ->
    let bp = entry.pages.(idx) in
    (match bp.frame with
     | Some _ -> ()                       (* raced with another fault *)
     | None ->
       t.faults <- t.faults + 1;
       let page =
         Phys_addr.allocate t.vm.Vm.phys ~owner ~bytes:Addr.page_size in
       let run = Phys_addr.page_run page in
       let pa = Addr.pa_of_page run.Phys_addr.first_pfn in
       if bp.written then begin
         disk_io t ~write:false ~block:bp.block (Bytes.create 0);
         (* Completion handler parked the data for us. *)
         match Hashtbl.find_opt t.reads bp.block with
         | Some data ->
           Hashtbl.remove t.reads bp.block;
           Phys_mem.write_bytes t.vm.Vm.machine.Machine.mem ~pa data
         | None -> ()
       end else
         Phys_addr.zero t.vm.Vm.phys page;
       bp.frame <- Some page;
       let va =
         entry.region.Virt_addr.va + (idx * Addr.page_size) in
       Translation.map_one t.vm.Vm.trans ctx ~va page ~index:0
         Addr.prot_read_write)

let create vm sched ~disk =
  let t = {
    vm; sched; disk;
    regions = [];
    next_block = 0;
    waiters = Hashtbl.create 16;
    reads = Hashtbl.create 16;
    faults = 0;
    pageouts = 0;
  } in
  (* Disk completions wake the waiting strand. *)
  Intr.register vm.Vm.machine.Machine.intr ~line:(Disk.line disk) (fun () ->
    let rec drain () =
      match Disk.take_completion disk with
      | None -> ()
      | Some completion ->
        let block =
          match completion with
          | Disk.Read_done { block; data; _ } ->
            Hashtbl.replace t.reads block data;
            block
          | Disk.Write_done { block; _ } -> block in
        (match Hashtbl.find_opt t.waiters block with
         | Some strand ->
           Hashtbl.remove t.waiters block;
           Sched.unblock sched strand
         | None -> ());
        drain () in
    drain ());
  let paged f =
    Option.is_some
      (find_page t (Translation.context_id f.Translation.ctx) f.Translation.va) in
  ignore
    (Dispatcher.ok_exn ~site:"Pager.create"
       (Dispatcher.install (Translation.page_not_present vm.Vm.trans)
          ~installer:owner ~spec:(Dispatcher.Handler_spec.guarded paged)
          (handle_fault t)));
  (* Reclamation can take one of our frames out from under us. The
     translation service already unmapped it; here we save its
     contents to backing store (fire-and-forget write, nobody waits)
     and forget the frame so the next touch refaults instead of
     spinning on a stale capability. *)
  Phys_addr.add_invalidate vm.Vm.phys (fun page ->
      List.iter
        (fun e ->
          Array.iter
            (fun bp ->
              match bp.frame with
              | Some p when Spin_core.Capability.equal p page ->
                let run = Phys_addr.page_run page in
                let data =
                  Phys_mem.read_bytes t.vm.Vm.machine.Machine.mem
                    ~pa:(Addr.pa_of_page run.Phys_addr.first_pfn)
                    ~len:Addr.page_size in
                Disk.submit_write t.disk ~block:bp.block data;
                bp.written <- true;
                bp.frame <- None
              | _ -> ())
            e.pages)
        t.regions);
  t

let make_pageable t ctx vaddr =
  let region = Virt_addr.region vaddr in
  let n = Virt_addr.npages region in
  let pages =
    Array.init n (fun _ ->
      let block = t.next_block in
      t.next_block <- t.next_block + blocks_per_page;
      { block; frame = None; written = false }) in
  Translation.attach_region ctx region;
  t.regions <-
    { ctx_id = Translation.context_id ctx; ctx; region; pages }
    :: t.regions

let evict t ctx ~va =
  match find_page t (Translation.context_id ctx) va with
  | None -> false
  | Some (entry, idx) ->
    let bp = entry.pages.(idx) in
    (match bp.frame with
     | None -> false
     | Some page ->
       let page_va = entry.region.Virt_addr.va + (idx * Addr.page_size) in
       let vpn = Addr.vpn_of_va page_va in
       let dirty =
         match Mmu.lookup (Translation.mmu_context ctx) ~vpn with
         | Some pte -> pte.Mmu.modified
         | None -> false in
       if dirty then begin
         let run = Phys_addr.page_run page in
         let data =
           Phys_mem.read_bytes t.vm.Vm.machine.Machine.mem
             ~pa:(Addr.pa_of_page run.Phys_addr.first_pfn)
             ~len:Addr.page_size in
         disk_io t ~write:true ~block:bp.block data;
         bp.written <- true
       end;
       Mmu.unmap t.vm.Vm.machine.Machine.mmu (Translation.mmu_context ctx) ~vpn;
       Phys_addr.deallocate t.vm.Vm.phys page;
       bp.frame <- None;
       t.pageouts <- t.pageouts + 1;
       true)

(* Write back and release the first resident page found, oldest
   region first: the pageout daemon's source. Strand context only. *)
let evict_any t =
  let rec in_entry e i =
    i < Array.length e.pages
    && (match e.pages.(i).frame with
        | Some _ ->
          evict t e.ctx
            ~va:(e.region.Virt_addr.va + (i * Addr.page_size))
        | None -> in_entry e (i + 1)) in
  let rec scan = function
    | [] -> false
    | e :: rest -> in_entry e 0 || scan rest in
  scan (List.rev t.regions)

let resident t ctx ~va =
  match find_page t (Translation.context_id ctx) va with
  | None -> false
  | Some (entry, idx) -> Option.is_some entry.pages.(idx).frame

let faults_served t = t.faults

let pageouts t = t.pageouts

module Addr = Spin_machine.Addr
module Mmu = Spin_machine.Mmu
module Cpu = Spin_machine.Cpu
module Machine = Spin_machine.Machine
module Phys_mem = Spin_machine.Phys_mem
module Capability = Spin_core.Capability
module Dispatcher = Spin_core.Dispatcher

(* Every resident page is one single-frame physical run, so sharing
   and copy-on-write act page by page. *)
type page_slot = {
  mutable page : Phys_addr.page;
  mutable writable : bool;      (* the logical (pre-COW) protection *)
}

type segment = {
  vaddr : Virt_addr.vaddr;
  slots : page_slot array;
}

type t = {
  mgr : mgr;
  space_name : string;
  ctx : Translation.context;
  mutable segments : segment list;
  mutable live : bool;
}

and mgr = {
  vm : Vm.t;
  mutable spaces : t list;
  refcounts : (int, int ref) Hashtbl.t;   (* capability id -> sharers *)
  mutable cow_copies : int;
}

let owner = "AddrSpace"

let refcount mgr page =
  let key = Capability.id page in
  match Hashtbl.find_opt mgr.refcounts key with
  | Some r -> r
  | None -> let r = ref 1 in Hashtbl.replace mgr.refcounts key r; r

let drop_ref mgr page =
  let key = Capability.id page in
  let r = refcount mgr page in
  decr r;
  if !r <= 0 then begin
    Hashtbl.remove mgr.refcounts key;
    Phys_addr.deallocate mgr.vm.Vm.phys page
  end

let find_slot space va =
  let vpn = Addr.vpn_of_va va in
  List.find_map
    (fun seg ->
      let region = Virt_addr.region seg.vaddr in
      let first = Addr.vpn_of_va region.Virt_addr.va in
      let idx = vpn - first in
      if idx >= 0 && idx < Array.length seg.slots then Some (seg, idx) else None)
    space.segments

(* Copy-on-write resolution: called from the ProtectionFault event. *)
let resolve_write_fault mgr space va =
  match find_slot space va with
  | None -> ()
  | Some (seg, idx) ->
    let slot = seg.slots.(idx) in
    if slot.writable then begin
      let r = refcount mgr slot.page in
      let region = Virt_addr.region seg.vaddr in
      let page_va = region.Virt_addr.va + (idx * Addr.page_size) in
      if !r > 1 then begin
        (* Shared: copy the page, remap privately. *)
        decr r;
        let fresh = Phys_addr.allocate mgr.vm.Vm.phys ~owner ~bytes:Addr.page_size in
        let src = Phys_addr.page_run slot.page in
        let dst = Phys_addr.page_run fresh in
        let mem = mgr.vm.Vm.machine.Machine.mem in
        Phys_mem.copy mem
          ~src:(Addr.pa_of_page src.Phys_addr.first_pfn)
          ~dst:(Addr.pa_of_page dst.Phys_addr.first_pfn)
          ~len:Addr.page_size;
        slot.page <- fresh;
        ignore (refcount mgr fresh);
        mgr.cow_copies <- mgr.cow_copies + 1;
        Translation.map_one mgr.vm.Vm.trans space.ctx ~va:page_va fresh ~index:0
          Addr.prot_read_write
      end else
        (* Last sharer: take the page back read-write. *)
        ignore (Translation.protect mgr.vm.Vm.trans space.ctx ~va:page_va
                  ~npages:1 Addr.prot_read_write)
    end

let create_manager vm =
  let mgr = { vm; spaces = []; refcounts = Hashtbl.create 256; cow_copies = 0 } in
  let cow_write f =
    f.Translation.access = Mmu.Write
    && List.exists
         (fun s -> s.live
                   && Translation.context_id s.ctx
                      = Translation.context_id f.Translation.ctx)
         mgr.spaces in
  ignore
    (Dispatcher.ok_exn ~site:"Addr_space.create_manager"
       (Dispatcher.install (Translation.protection_fault vm.Vm.trans)
          ~installer:owner ~spec:(Dispatcher.Handler_spec.guarded cow_write)
          (fun f ->
            let space =
              List.find
                (fun s -> Translation.context_id s.ctx
                          = Translation.context_id f.Translation.ctx)
                mgr.spaces in
            resolve_write_fault mgr space f.Translation.va)));
  mgr

let vm mgr = mgr.vm

let create mgr ~name =
  let ctx = Translation.create_context mgr.vm.Vm.trans ~owner:name in
  let space = { mgr; space_name = name; ctx; segments = []; live = true } in
  mgr.spaces <- space :: mgr.spaces;
  space

let add_segment space vaddr =
  let vm = space.mgr.vm in
  let region = Virt_addr.region vaddr in
  let n = Virt_addr.npages region in
  let slots =
    Array.init n (fun i ->
      let page = Phys_addr.allocate vm.Vm.phys ~owner ~bytes:Addr.page_size in
      Phys_addr.zero vm.Vm.phys page;
      ignore (refcount space.mgr page);
      Translation.map_one vm.Vm.trans space.ctx
        ~va:(region.Virt_addr.va + (i * Addr.page_size)) page ~index:0
        Addr.prot_read_write;
      { page; writable = true }) in
  Translation.attach_region space.ctx region;
  space.segments <- { vaddr; slots } :: space.segments;
  region.Virt_addr.va

let allocate space ~bytes =
  let vm = space.mgr.vm in
  let vaddr =
    Virt_addr.allocate vm.Vm.virt ~asid:(Translation.context_id space.ctx)
      ~owner:space.space_name ~bytes in
  add_segment space vaddr

let allocate_at space ~va ~bytes =
  let vm = space.mgr.vm in
  Virt_addr.allocate_at vm.Vm.virt ~asid:(Translation.context_id space.ctx)
    ~owner:space.space_name ~va ~bytes
  |> Option.map (fun vaddr -> add_segment space vaddr)

let release_segment space seg =
  let vm = space.mgr.vm in
  Translation.remove_mapping vm.Vm.trans space.ctx seg.vaddr;
  Array.iter (fun slot -> drop_ref space.mgr slot.page) seg.slots;
  Virt_addr.deallocate vm.Vm.virt seg.vaddr

let free space ~va =
  match
    List.partition
      (fun seg -> (Virt_addr.region seg.vaddr).Virt_addr.va = va)
      space.segments
  with
  | [], _ -> ()
  | found, rest ->
    space.segments <- rest;
    List.iter (release_segment space) found

let copy mgr parent ~name =
  let vm = mgr.vm in
  let child = create mgr ~name in
  List.iter
    (fun seg ->
      let region = Virt_addr.region seg.vaddr in
      (* The child gets its own region capability at the same va. *)
      match
        Virt_addr.allocate_at vm.Vm.virt
          ~asid:(Translation.context_id child.ctx) ~owner:name
          ~va:region.Virt_addr.va ~bytes:region.Virt_addr.bytes
      with
      | None -> invalid_arg "Addr_space.copy: child region collision"
      | Some cvaddr ->
        let cregion = Virt_addr.region cvaddr in
        Translation.attach_region child.ctx cregion;
        let cslots =
          Array.mapi
            (fun i slot ->
              let va = region.Virt_addr.va + (i * Addr.page_size) in
              let r = refcount mgr slot.page in
              incr r;
              (* Share read-only in both spaces. *)
              Translation.map_one vm.Vm.trans child.ctx ~va slot.page ~index:0
                Addr.prot_read;
              if slot.writable then
                ignore (Translation.protect vm.Vm.trans parent.ctx ~va
                          ~npages:1 Addr.prot_read);
              { page = slot.page; writable = slot.writable })
            seg.slots in
        child.segments <- { vaddr = cvaddr; slots = cslots } :: child.segments)
    parent.segments;
  child

let destroy space =
  if space.live then begin
    space.live <- false;
    List.iter (release_segment space) space.segments;
    space.segments <- [];
    Translation.destroy_context space.mgr.vm.Vm.trans space.ctx;
    space.mgr.spaces <- List.filter (fun s -> s != space) space.mgr.spaces
  end

let context space = space.ctx

let name space = space.space_name

let resident_pages space =
  List.fold_left (fun acc seg -> acc + Array.length seg.slots) 0 space.segments

let cow_copies mgr = mgr.cow_copies

let activate space =
  Cpu.set_context space.mgr.vm.Vm.machine.Machine.cpu
    (Some (Translation.mmu_context space.ctx))

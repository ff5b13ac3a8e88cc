module Addr = Spin_machine.Addr
module Cpu = Spin_machine.Cpu
module Machine = Spin_machine.Machine
module Dispatcher = Spin_core.Dispatcher

type t = {
  vm : Vm.t;
  app : string;
  ctx : Translation.context;
  vaddr : Virt_addr.vaddr;
  npages : int;
  mutable user_proc : (int -> unit) option;
  mutable handler : (Translation.fault, unit) Dispatcher.handler option;
}

let create vm ~app ~pages =
  if pages <= 0 then invalid_arg "Vm_ext.create: no pages";
  let ctx = Translation.create_context vm.Vm.trans ~owner:app in
  let vaddr =
    Virt_addr.allocate vm.Vm.virt ~asid:(Translation.context_id ctx)
      ~bytes:(pages * Addr.page_size) in
  let page =
    Phys_addr.allocate vm.Vm.phys
      ~attrib:{ Phys_addr.contiguous = true }
      ~owner:app ~bytes:(pages * Addr.page_size) in
  Phys_addr.zero vm.Vm.phys page;
  Translation.add_mapping vm.Vm.trans ctx vaddr page Addr.prot_read_write;
  { vm; app; ctx; vaddr; npages = pages;
    user_proc = None; handler = None }

let context t = t.ctx

let base_va t = (Virt_addr.region t.vaddr).Virt_addr.va

let va_of_page t i =
  if i < 0 || i >= t.npages then invalid_arg "Vm_ext.va_of_page: out of range";
  base_va t + (i * Addr.page_size)

let activate t =
  Cpu.set_context t.vm.Vm.machine.Machine.cpu
    (Some (Translation.mmu_context t.ctx))

let read t ~page = Cpu.load_word t.vm.Vm.machine.Machine.cpu ~va:(va_of_page t page)

let write t ~page v = Cpu.store_word t.vm.Vm.machine.Machine.cpu ~va:(va_of_page t page) v

let dirty t ~page = Translation.is_dirty t.vm.Vm.trans t.ctx ~va:(va_of_page t page)

let protect t ~first ~count prot =
  ignore (Translation.protect t.vm.Vm.trans t.ctx ~va:(va_of_page t first)
            ~npages:count prot)

let clear_fault_handler t =
  (match t.handler with
   | Some h -> Dispatcher.uninstall (Translation.protection_fault t.vm.Vm.trans) h
   | None -> ());
  t.handler <- None;
  t.user_proc <- None

let on_protection_fault t proc =
  clear_fault_handler t;
  t.user_proc <- Some proc;
  let ours f =
    Translation.context_id f.Translation.ctx = Translation.context_id t.ctx in
  let h =
    Dispatcher.install (Translation.protection_fault t.vm.Vm.trans)
      ~installer:t.app ~spec:(Dispatcher.Handler_spec.guarded ours)
      (fun f ->
        let page = (f.Translation.va - base_va t) / Addr.page_size in
        match t.user_proc with
        | Some proc -> proc page
        | None -> ()) in
  t.handler <- Some (Dispatcher.ok_exn ~site:"Vm_ext.on_protection_fault" h)


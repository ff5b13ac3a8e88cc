module Machine = Spin_machine.Machine
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Cpu = Spin_machine.Cpu
module Dispatcher = Spin_core.Dispatcher
module Nameserver = Spin_core.Nameserver
module Kdomain = Spin_core.Kdomain
module Object_file = Spin_core.Object_file
module Sched = Spin_sched.Sched
module Vm = Spin_vm.Vm
module Kheap = Spin_kgc.Kheap
module Symbol = Spin_core.Symbol
module Ty = Spin_core.Ty
module Univ = Spin_core.Univ
module Translation = Spin_vm.Translation
module Phys_addr = Spin_vm.Phys_addr

type t = {
  machine : Machine.t;
  dispatcher : Dispatcher.t;
  nameserver : Nameserver.t;
  sched : Sched.t;
  vm : Vm.t;
  heap : Kheap.t;
  swap : Swap.t;
  syscall_event : (int * int array, int) Dispatcher.event;
  syscalls : (int, int array -> int) Hashtbl.t;
  mutable public : Kdomain.t;
  mutable extensions : Kdomain.t list;
}

(* The tags under which core-service events travel through domains:
   an import of "Translation.PageNotPresent" from SpinPublic resolves
   to the event packed with the matching tag. *)
let strand_event_tag : (Spin_sched.Strand.t, unit) Dispatcher.event Univ.tag =
  Univ.tag ~name:"Strand.Event" ()

let translation_event_tag
  : (Translation.fault, unit) Dispatcher.event Univ.tag =
  Univ.tag ~name:"Translation.Event" ()

let reclaim_event_tag
  : (Phys_addr.page, Phys_addr.page) Dispatcher.event Univ.tag =
  Univ.tag ~name:"PhysAddr.Reclaim" ()

let select_victim_event_tag
  : (Phys_addr.victim_request, Phys_addr.page option) Dispatcher.event
      Univ.tag =
  Univ.tag ~name:"PhysAddr.SelectVictim" ()

let swap_event_tag : (Swap.outcome, unit) Dispatcher.event Univ.tag =
  Univ.tag ~name:"Swap.SwappedEvent" ()

let publish t ~name ?authorize domain =
  Nameserver.register t.nameserver ~name ?authorize domain;
  t.public <- Kdomain.combine ~name:"SpinPublic" t.public domain

let boot ?cpus ?(name = "spin") () =
  let machine = Machine.create ?cpus ~name () in
  let dispatcher = Dispatcher.create machine.Machine.clock in
  let nameserver = Nameserver.create machine.Machine.clock in
  let sched =
    Sched.create ~intr:machine.Machine.intr machine.Machine.sim dispatcher in
  let vm = Vm.create machine dispatcher in
  let heap = Kheap.create machine.Machine.clock () in
  let swap = Swap.create sched dispatcher in
  let syscalls : (int, int array -> int) Hashtbl.t = Hashtbl.create 32 in
  (* One installed handler: the raise is a fast-path procedure call
     into the table (Table 2's 4 us system call). *)
  let syscall_event =
    Dispatcher.declare dispatcher ~name:"Trap.SystemCall" ~owner:"Trap"
      (fun (number, args) ->
        match Hashtbl.find_opt syscalls number with
        | Some fn -> fn args
        | None -> -1) in
  let public = Kdomain.create_from_module ~name:"SpinPublic" ~exports:[] in
  let t = { machine; dispatcher; nameserver; sched; vm; heap; swap;
            syscall_event; syscalls; public; extensions = [] } in
  (* Every CPU traps into the same kernel entry point. *)
  Machine.set_trap_handler machine (fun trap ->
    match trap with
    | Cpu.Syscall { number; args } ->
      let clock = machine.Machine.clock in
      Clock.charge clock (Clock.cost clock).Cost.syscall_glue;
      Dispatcher.raise_default t.syscall_event (-1) (number, args)
    | Cpu.Mem_fault _ ->
      if Vm.handle_trap t.vm trap then 0 else -1
    | Cpu.Illegal -> -1);
  (* Export the core-service events through domains, so extensions
     import them by name from SpinPublic — event names are protected
     by the domain machinery (paper, section 3.2). *)
  let event_ty intf item = Symbol.make ~intf ~name:item
      (Ty.Proc ([ Ty.Opaque (intf ^ ".T") ], Ty.Unit)) in
  let strand_events = Sched.events sched in
  let strand_domain =
    Kdomain.create_from_module ~name:"Strand"
      ~exports:[
        (event_ty "Strand" "Block",
         Univ.pack strand_event_tag strand_events.Sched.block);
        (event_ty "Strand" "Unblock",
         Univ.pack strand_event_tag strand_events.Sched.unblock);
        (event_ty "Strand" "Checkpoint",
         Univ.pack strand_event_tag strand_events.Sched.checkpoint);
        (event_ty "Strand" "Resume",
         Univ.pack strand_event_tag strand_events.Sched.resume);
      ] in
  let translation_domain =
    Kdomain.create_from_module ~name:"Translation"
      ~exports:[
        (event_ty "Translation" "PageNotPresent",
         Univ.pack translation_event_tag (Translation.page_not_present vm.Vm.trans));
        (event_ty "Translation" "BadAddress",
         Univ.pack translation_event_tag (Translation.bad_address vm.Vm.trans));
        (event_ty "Translation" "ProtectionFault",
         Univ.pack translation_event_tag (Translation.protection_fault vm.Vm.trans));
      ] in
  (* Memory pressure is extensible the same way: services import
     Reclaim to volunteer pages, SelectVictim to replace the paging
     policy (section 5.2). *)
  let physaddr_domain =
    Kdomain.create_from_module ~name:"PhysAddr"
      ~exports:[
        (event_ty "PhysAddr" "Reclaim",
         Univ.pack reclaim_event_tag (Phys_addr.reclaim_event vm.Vm.phys));
        (event_ty "PhysAddr" "SelectVictim",
         Univ.pack select_victim_event_tag
           (Phys_addr.select_victim_event vm.Vm.phys));
      ] in
  (* Live update is observable: peers import DomainSwapped and re-mint
     references when a provider changes. *)
  let swap_domain =
    Kdomain.create_from_module ~name:"Swap"
      ~exports:[
        (event_ty "Swap" "DomainSwapped",
         Univ.pack swap_event_tag (Swap.swapped_event swap));
      ] in
  publish t ~name:"StrandService" strand_domain;
  publish t ~name:"TranslationService" translation_domain;
  publish t ~name:"PhysAddrService" physaddr_domain;
  publish t ~name:"SwapService" swap_domain;
  t

let trace t = Spin_machine.Trace.of_clock t.machine.Machine.clock

let elapsed_us t = Clock.now_us t.machine.Machine.clock

let stamp_us t f =
  Cost.cycles_to_us t.machine.Machine.cost
    (Clock.stamp t.machine.Machine.clock f)

let syscall t ~number ~args = Cpu.syscall t.machine.Machine.cpu ~number ~args

let register_syscall t ~number fn = Hashtbl.replace t.syscalls number fn

let load_extension t obj =
  match Kdomain.create obj with
  | Error _ as e -> e
  | Ok domain ->
    match Kdomain.resolve ~source:t.public ~target:domain with
    | Error _ as e -> e
    | Ok _patched ->
      Kdomain.initialize domain;
      t.extensions <- domain :: t.extensions;
      Ok domain

let extension_count t = List.length t.extensions

let attach_fuzz ~seed t =
  Spin_sched.Sched_fuzz.attach ~cpus:(Array.to_list t.machine.Machine.cpus)
    ~dispatcher:t.dispatcher ~seed t.sched

let run t = Sched.run t.sched

let spawn t ~name body = Sched.spawn t.sched ~name body

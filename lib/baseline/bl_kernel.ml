module Machine = Spin_machine.Machine
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Cpu = Spin_machine.Cpu
module Mmu = Spin_machine.Mmu
module Addr = Spin_machine.Addr
module Dispatcher = Spin_core.Dispatcher
module Sched = Spin_sched.Sched
module Kthread = Spin_sched.Kthread

type t = {
  os : Os_costs.t;
  machine : Machine.t;
  sched : Sched.t;
  (* Two translation contexts stand in for two processes (client and
     server of the cross-address-space call). *)
  ctx_a : Mmu.context;
  ctx_b : Mmu.context;
  (* The VM benchmark arena. *)
  mutable arena : Mmu.context option;
}

let create os ~name =
  let machine = Machine.create ~mem_mb:16 ~name () in
  let dispatcher = Dispatcher.create machine.Machine.clock in
  let sched = Sched.create machine.Machine.sim dispatcher in
  let ctx_a = Mmu.create_context machine.Machine.mmu in
  let ctx_b = Mmu.create_context machine.Machine.mmu in
  { os; machine; sched; ctx_a; ctx_b; arena = None }

let machine t = t.machine

let clock t = t.machine.Machine.clock

let charge t c = Clock.charge (clock t) c

let stamp_us t f =
  Cost.cycles_to_us t.machine.Machine.cost (Clock.stamp (clock t) f)

let hw t = t.machine.Machine.cost

(* -------------------- Table 2 ------------------------------------- *)

let trap_cost t = (hw t).Cost.trap_entry + (hw t).Cost.trap_exit

let null_syscall t = Bl_path.null_syscall (clock t) t.os

let switch_to t ctx = Cpu.set_context t.machine.Machine.cpu (Some ctx)

let cross_address_space_call t =
  let os = t.os in
  if os.Os_costs.message_ipc > 0 then begin
    (* Mach: trap, message to the server, address-space switch, server
       replies the same way. *)
    null_syscall t;
    charge t os.Os_costs.message_ipc;
    switch_to t t.ctx_b;
    null_syscall t;
    charge t os.Os_costs.message_ipc;
    switch_to t t.ctx_a
  end else begin
    (* OSF/1: socket write + SUN RPC marshalling, server reads from its
       socket, replies along the reverse path. *)
    null_syscall t;                        (* send *)
    charge t os.Os_costs.sunrpc_marshal;
    charge t os.Os_costs.socket_op;
    charge t os.Os_costs.process_wakeup;
    switch_to t t.ctx_b;
    null_syscall t;                        (* server recv returns *)
    charge t os.Os_costs.socket_op;
    null_syscall t;                        (* server reply send *)
    charge t os.Os_costs.sunrpc_marshal;
    charge t os.Os_costs.socket_op;
    charge t os.Os_costs.process_wakeup;
    switch_to t t.ctx_a;
    null_syscall t;                        (* client recv returns *)
    charge t os.Os_costs.socket_op
  end

(* -------------------- Table 3 ------------------------------------- *)

let user_crossing_cost t =
  t.os.Os_costs.user_thread_syscalls
  * (trap_cost t + t.os.Os_costs.syscall_dispatch)

let fork_join t ~user =
  if user then begin
    charge t t.os.Os_costs.user_fork_layer;
    charge t (user_crossing_cost t)
  end;
  charge t t.os.Os_costs.thread_create_extra;
  let child = Kthread.fork t.sched (fun () -> ()) in
  if user then charge t (user_crossing_cost t);
  Kthread.join t.sched child

let ping_pong t ~user ~iters =
  let mu = Kthread.Mutex.create () in
  let cond = Kthread.Condition.create () in
  let turn = ref `Ping in
  let extra () =
    charge t t.os.Os_costs.thread_sync_extra;
    if user then begin
      charge t t.os.Os_costs.user_sync_layer;
      charge t (user_crossing_cost t)
    end in
  let player me other () =
    Kthread.Mutex.lock t.sched mu;
    for _ = 1 to iters do
      while !turn <> me do
        extra ();
        Kthread.Condition.wait t.sched mu cond
      done;
      turn := other;
      extra ();
      Kthread.Condition.signal t.sched cond
    done;
    Kthread.Mutex.unlock t.sched mu in
  let a = Kthread.fork t.sched (player `Ping `Pong) in
  let b = Kthread.fork t.sched (player `Pong `Ping) in
  Kthread.join t.sched a;
  Kthread.join t.sched b

let in_kernel_thread t body =
  ignore (Sched.spawn t.sched ~name:(t.os.Os_costs.os_name ^ "-bench") body);
  Sched.run t.sched

(* -------------------- Table 4 ------------------------------------- *)

let arena t =
  match t.arena with
  | Some ctx -> ctx
  | None -> invalid_arg "Bl_kernel: call vm_setup first"

let vm_setup t ~pages =
  let mmu = t.machine.Machine.mmu in
  let ctx = Mmu.create_context mmu in
  for i = 0 to pages - 1 do
    Mmu.map mmu ctx ~vpn:i ~pfn:(i + 8) ~prot:Addr.prot_read_write
  done;
  t.arena <- Some ctx;
  Cpu.set_context t.machine.Machine.cpu (Some ctx)

let vm_protect t ~first ~count ~writable =
  let os = t.os in
  null_syscall t;
  charge t os.Os_costs.vm_layer_base;
  let prot = if writable then Addr.prot_read_write else Addr.prot_read in
  let ctx = arena t in
  if writable && os.Os_costs.lazy_unprotect then
    (* Mach defers the hardware update; only the map entry changes.
       Charge the per-page bookkeeping at a fraction. *)
    charge t (count * (os.Os_costs.vm_layer_per_page / 8))
  else
    for i = first to first + count - 1 do
      charge t os.Os_costs.vm_layer_per_page;
      ignore (Mmu.protect t.machine.Machine.mmu ctx ~vpn:i ~prot)
    done;
  if writable && os.Os_costs.lazy_unprotect then
    (* The pages become writable on next fault; apply them now without
       charging (the hardware work happens lazily, off this path). *)
    for i = first to first + count - 1 do
      ignore (Mmu.protect ~charge:false t.machine.Machine.mmu ctx ~vpn:i ~prot)
    done

let reflect_fault_to_user t =
  (* Hardware fault, kernel classification, then the OS's user-level
     delivery mechanism. *)
  charge t (hw t).Cost.trap_entry;
  charge t t.os.Os_costs.syscall_dispatch;
  if t.os.Os_costs.exception_msg > 0 then charge t t.os.Os_costs.exception_msg
  else charge t t.os.Os_costs.signal_path

let resume_from_user t =
  (* Mach resumes a fault through the external pager's lock/supply
     reply; OSF through sigreturn. *)
  charge t t.os.Os_costs.pager_reply;
  charge t t.os.Os_costs.sigreturn;
  charge t (hw t).Cost.trap_exit

let vm_trap_latency t =
  stamp_us t (fun () -> reflect_fault_to_user t)

let do_user_level_protect t ~first ~count ~writable =
  (* From inside a user fault handler the protect is still a syscall;
     on Mach it is a lock request through the pager interface, which
     costs extra messages. *)
  if t.os.Os_costs.pager_reply > 0 then
    charge t (3 * t.os.Os_costs.message_ipc);
  vm_protect t ~first ~count ~writable

let vm_fault_total t =
  reflect_fault_to_user t;
  (* OSF's handler enables access explicitly (mprotect); Mach's pager
     grants it in the resume reply itself. *)
  if t.os.Os_costs.pager_reply = 0 then
    do_user_level_protect t ~first:0 ~count:1 ~writable:true;
  resume_from_user t;
  (* The faulting access retries. *)
  charge t (hw t).Cost.mem_access

let vm_appel1 t =
  reflect_fault_to_user t;
  do_user_level_protect t ~first:0 ~count:1 ~writable:true;
  do_user_level_protect t ~first:1 ~count:1 ~writable:false;
  resume_from_user t;
  charge t (hw t).Cost.mem_access

let vm_appel2_per_page t ~pages =
  let us =
    stamp_us t (fun () ->
      vm_protect t ~first:0 ~count:pages ~writable:false;
      for i = 0 to pages - 1 do
        reflect_fault_to_user t;
        do_user_level_protect t ~first:i ~count:1 ~writable:true;
        resume_from_user t;
        charge t (hw t).Cost.mem_access
      done) in
  us /. float_of_int pages

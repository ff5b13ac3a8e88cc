module Machine = Spin_machine.Machine
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Cpu = Spin_machine.Cpu
module Mmu = Spin_machine.Mmu
module Addr = Spin_machine.Addr

type t = {
  os : Os_costs.t;
  machine : Machine.t;
  (* Two processes: the client and server of the cross-address-space
     call. The client's space holds the VM benchmark arena. *)
  client : Mmu.context;
  server : Mmu.context;
}

let arena_pages = 128

let create os machine =
  let mmu = machine.Machine.mmu in
  let client = Mmu.create_context mmu in
  let server = Mmu.create_context mmu in
  for i = 0 to arena_pages - 1 do
    Mmu.map mmu client ~vpn:i ~pfn:(i + 8) ~prot:Addr.prot_read_write
  done;
  { os; machine; client; server }

let trap_cost clock =
  let hw = Clock.cost clock in
  hw.Cost.trap_entry + hw.Cost.trap_exit

let null_syscall clock os =
  Clock.charge clock (trap_cost clock);
  Clock.charge clock os.Os_costs.syscall_dispatch

let copy_cost clock ~bytes = Cost.copy_cycles (Clock.cost clock) ~bytes

let clock t = t.machine.Machine.clock

let charge t c = Clock.charge (clock t) c

let hw t = t.machine.Machine.cost

let syscall t = null_syscall (clock t) t.os

(* -------------------- Table 2 ------------------------------------- *)

let switch_to t ctx = Cpu.set_context t.machine.Machine.cpu (Some ctx)

let cross_address_space_call t =
  let os = t.os in
  if os.Os_costs.message_ipc > 0 then begin
    (* Mach: trap, message to the server, address-space switch, server
       replies the same way. *)
    syscall t;
    charge t os.Os_costs.message_ipc;
    switch_to t t.server;
    syscall t;
    charge t os.Os_costs.message_ipc;
    switch_to t t.client
  end else begin
    (* OSF/1: socket write + SUN RPC marshalling, server reads from its
       socket, replies along the reverse path. *)
    syscall t;                             (* send *)
    charge t os.Os_costs.sunrpc_marshal;
    charge t os.Os_costs.socket_op;
    charge t os.Os_costs.process_wakeup;
    switch_to t t.server;
    syscall t;                             (* server recv returns *)
    charge t os.Os_costs.socket_op;
    syscall t;                             (* server reply send *)
    charge t os.Os_costs.sunrpc_marshal;
    charge t os.Os_costs.socket_op;
    charge t os.Os_costs.process_wakeup;
    switch_to t t.client;
    syscall t;                             (* client recv returns *)
    charge t os.Os_costs.socket_op
  end

(* -------------------- Table 4 ------------------------------------- *)

let vm_protect t ~first ~count ~writable =
  let os = t.os in
  syscall t;
  charge t os.Os_costs.vm_layer_base;
  let prot = if writable then Addr.prot_read_write else Addr.prot_read in
  let mmu = t.machine.Machine.mmu in
  if writable && os.Os_costs.lazy_unprotect then begin
    (* Mach defers the hardware update; only the map entry changes.
       Charge the per-page bookkeeping at a fraction, and apply the
       protection without charging: the hardware work happens lazily,
       on the next fault, off this path. *)
    charge t (count * (os.Os_costs.vm_layer_per_page / 8));
    for i = first to first + count - 1 do
      ignore (Mmu.protect ~charge:false mmu t.client ~vpn:i ~prot)
    done
  end else
    for i = first to first + count - 1 do
      charge t os.Os_costs.vm_layer_per_page;
      ignore (Mmu.protect mmu t.client ~vpn:i ~prot)
    done

let vm_trap t =
  (* Hardware fault, kernel classification, then the OS's user-level
     delivery mechanism. *)
  charge t (hw t).Cost.trap_entry;
  charge t t.os.Os_costs.syscall_dispatch;
  if t.os.Os_costs.exception_msg > 0 then charge t t.os.Os_costs.exception_msg
  else charge t t.os.Os_costs.signal_path

let resume_from_user t =
  (* Mach resumes a fault through the external pager's lock/supply
     reply; OSF through sigreturn. The faulting access then retries. *)
  charge t t.os.Os_costs.pager_reply;
  charge t t.os.Os_costs.sigreturn;
  charge t (hw t).Cost.trap_exit;
  charge t (hw t).Cost.mem_access

let handler_protect t ~page ~writable =
  (* From inside a user fault handler the protect is still a syscall;
     on Mach it is a lock request through the pager interface, which
     costs extra messages. *)
  if t.os.Os_costs.pager_reply > 0 then
    charge t (3 * t.os.Os_costs.message_ipc);
  vm_protect t ~first:page ~count:1 ~writable

let vm_fault t =
  vm_trap t;
  (* OSF's handler enables access explicitly (mprotect); Mach's pager
     grants it in the resume reply itself. *)
  if t.os.Os_costs.pager_reply = 0 then
    handler_protect t ~page:0 ~writable:true;
  resume_from_user t

let vm_appel1 t =
  vm_trap t;
  handler_protect t ~page:0 ~writable:true;
  handler_protect t ~page:1 ~writable:false;
  resume_from_user t

let vm_appel2 t ~pages =
  vm_protect t ~first:0 ~count:pages ~writable:false;
  for i = 0 to pages - 1 do
    vm_trap t;
    handler_protect t ~page:i ~writable:true;
    resume_from_user t
  done

(* -------------------- Table 5 ------------------------------------- *)

let user_send_overhead clock os ~bytes =
  null_syscall clock os;
  Clock.charge clock os.Os_costs.net_socket_send;
  Clock.charge clock (copy_cost clock ~bytes)

let user_recv_overhead clock os ~bytes =
  (* mbuf -> socket buffer -> user: two copies; the receiving process
     wakes, is switched in, and returns from its recv system call. *)
  Clock.charge clock os.Os_costs.net_socket_recv;
  Clock.charge clock os.Os_costs.process_wakeup;
  Clock.charge clock (2 * (Clock.cost clock).Cost.context_switch);
  Clock.charge clock (2 * copy_cost clock ~bytes);
  null_syscall clock os

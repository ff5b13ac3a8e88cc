(* Tables 2-4: protected communication, thread management, virtual
   memory. SPIN rows run on the real kernel; OSF/1 and Mach rows run
   on the baseline models over the same simulated machine. *)

module Kernel = Spin.Kernel
module Dispatcher = Spin_core.Dispatcher
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Mmu = Spin_machine.Mmu
module Machine = Spin_machine.Machine
module Cpu = Spin_machine.Cpu
module Addr = Spin_machine.Addr
module Sched = Spin_sched.Sched
module Kthread = Spin_sched.Kthread
module Vm_ext = Spin_vm.Vm_ext
module Translation = Spin_vm.Translation
module Bl = Spin_baseline.Bl_kernel
module Os_costs = Spin_baseline.Os_costs

let iters = 64

let avg_us_of k thunk =
  let us = Kernel.stamp_us k (fun () -> for _ = 1 to iters do thunk () done) in
  us /. float_of_int iters

let avg_us_bl b thunk =
  let us = Bl.stamp_us b (fun () -> for _ = 1 to iters do thunk () done) in
  us /. float_of_int iters

(* ------------------------------------------------------------------ *)
(* Table 2                                                            *)
(* ------------------------------------------------------------------ *)

(* The SPIN cross-address-space call: an extension that uses system
   calls to enter the kernel and cross-domain procedure calls within
   it; the transfer parks the client strand, switches to the server's
   address space, upcalls the server, and returns symmetrically. The
   per-leg extension bookkeeping (externalized-reference checks,
   argument validation) is the one calibrated constant. *)
let ipc_leg_bookkeeping = 2_970

let spin_cross_as_call k ctx_client ctx_server =
  let m = k.Kernel.machine in
  let clock = m.Machine.clock in
  let hw = m.Machine.cost in
  let leg target_ctx =
    ignore (Kernel.syscall k ~number:7 ~args:[||]);   (* enter kernel *)
    Clock.charge clock ipc_leg_bookkeeping;           (* IPC extension *)
    Clock.charge clock (hw.Cost.context_switch + 160);(* park + run peer *)
    Cpu.set_context m.Machine.cpu (Some target_ctx);  (* address space *)
    Clock.charge clock (hw.Cost.trap_exit + hw.Cost.trap_entry)
    (* upcall into the peer and back into the kernel *) in
  leg ctx_server;                                     (* request *)
  leg ctx_client                                      (* reply *)

let table2 () =
  Report.header "Table 2: protected communication (us)";
  Report.columns4 "operation" "paper" "measured" "system";
  (* SPIN *)
  let k = Kernel.boot ~name:"t2" () in
  Kernel.register_syscall k ~number:7 (fun _ -> 0);
  let e = Dispatcher.declare k.Kernel.dispatcher ~name:"T2.Null" ~owner:"T2"
      (fun () -> ()) in
  let in_kernel = avg_us_of k (fun () -> Dispatcher.raise_event e ()) in
  let syscall = avg_us_of k (fun () -> ignore (Kernel.syscall k ~number:7 ~args:[||])) in
  let ctx_c = Mmu.create_context k.Kernel.machine.Machine.mmu in
  let ctx_s = Mmu.create_context k.Kernel.machine.Machine.mmu in
  Cpu.set_context k.Kernel.machine.Machine.cpu (Some ctx_c);
  let cross = avg_us_of k (fun () -> spin_cross_as_call k ctx_c ctx_s) in
  (* Baselines *)
  let osf = Bl.create Os_costs.osf1 ~name:"t2-osf" in
  let mach = Bl.create Os_costs.mach3 ~name:"t2-mach" in
  let osf_sys = avg_us_bl osf (fun () -> Bl.null_syscall osf) in
  let mach_sys = avg_us_bl mach (fun () -> Bl.null_syscall mach) in
  let osf_cross = avg_us_bl osf (fun () -> Bl.cross_address_space_call osf) in
  let mach_cross = avg_us_bl mach (fun () -> Bl.cross_address_space_call mach) in
  let p name paper measured sys =
    Printf.printf "%-28s %12.2f %12.2f %12s\n" name paper measured sys;
    Report.metric ~name:(sys ^ ": " ^ name) measured in
  p "Protected in-kernel call" 0.13 in_kernel "SPIN";
  p "System call" 4. syscall "SPIN";
  p "System call" 5. osf_sys "DEC OSF/1";
  p "System call" 7. mach_sys "Mach";
  p "Cross-address space call" 89. cross "SPIN";
  p "Cross-address space call" 845. osf_cross "DEC OSF/1";
  p "Cross-address space call" 104. mach_cross "Mach";
  (* The paper's claims (section 5.1): who wins, not by how much. *)
  Report.require ~name:"system call: SPIN < OSF/1 < Mach"
    (syscall < osf_sys && osf_sys < mach_sys);
  Report.require ~name:"cross-address-space call: SPIN < Mach < OSF/1"
    (cross < mach_cross && mach_cross < osf_cross)

(* ------------------------------------------------------------------ *)
(* Table 3                                                            *)
(* ------------------------------------------------------------------ *)

(* SPIN user-level C-Threads implementations: both run user code above
   the kernel extension; the "layered" one goes through an emulated
   Mach kernel-thread interface (more crossings and library work), the
   "integrated" one is a kernel extension exporting C-Threads directly
   through system calls. Constants are user-library path lengths. *)
type user_pkg = {
  fork_syscalls : int;
  fork_library : int;      (* cycles: stack + descriptor setup in user *)
  sync_syscalls : int;     (* per ping-pong iteration *)
  sync_library : int;
}

let integrated = {
  fork_syscalls = 2;
  fork_library = 11_170;
  sync_syscalls = 2;
  sync_library = 1_130;
}

let layered = {
  fork_syscalls = 5;
  fork_library = 29_600;
  sync_syscalls = 2;
  sync_library = 3_600;
}

let spin_user_charges k pkg ~syscalls ~library =
  for _ = 1 to syscalls do
    ignore (Kernel.syscall k ~number:8 ~args:[||])
  done;
  Clock.charge k.Kernel.machine.Machine.clock library;
  ignore pkg

let spin_fork_join k pkg () =
  (match pkg with
   | Some p -> spin_user_charges k p ~syscalls:p.fork_syscalls ~library:p.fork_library
   | None -> ());
  let child = Kthread.fork k.Kernel.sched (fun () -> ()) in
  Kthread.join k.Kernel.sched child

let spin_ping_pong k pkg ~iters () =
  let s = k.Kernel.sched in
  let mu = Kthread.Mutex.create () in
  let cond = Kthread.Condition.create () in
  let turn = ref `Ping in
  let extra () =
    match pkg with
    | Some p -> spin_user_charges k p ~syscalls:p.sync_syscalls ~library:p.sync_library
    | None -> () in
  let player me other () =
    Kthread.Mutex.lock s mu;
    for _ = 1 to iters do
      while !turn <> me do extra (); Kthread.Condition.wait s mu cond done;
      turn := other;
      extra ();
      Kthread.Condition.signal s cond
    done;
    Kthread.Mutex.unlock s mu in
  let a = Kthread.fork s (player `Ping `Pong) in
  let b = Kthread.fork s (player `Pong `Ping) in
  Kthread.join s a;
  Kthread.join s b

let measure_spin_thread_ops pkg =
  let k = Kernel.boot ~name:"t3" () in
  Kernel.register_syscall k ~number:8 (fun _ -> 0);
  let fj = ref 0. and pp = ref 0. in
  ignore (Kernel.spawn k ~name:"bench" (fun () ->
    let us = Kernel.stamp_us k (fun () ->
      for _ = 1 to 16 do spin_fork_join k pkg () done) in
    fj := us /. 16.;
    let n = 64 in
    let us = Kernel.stamp_us k (fun () -> spin_ping_pong k pkg ~iters:n ()) in
    pp := us /. float_of_int n));
  Kernel.run k;
  (!fj, !pp)

let measure_bl_thread_ops os ~user =
  let b = Bl.create os ~name:"t3-bl" in
  let fj = ref 0. and pp = ref 0. in
  Bl.in_kernel_thread b (fun () ->
    let us = Bl.stamp_us b (fun () ->
      for _ = 1 to 16 do Bl.fork_join b ~user done) in
    fj := us /. 16.;
    let n = 64 in
    let us = Bl.stamp_us b (fun () -> Bl.ping_pong b ~user ~iters:n) in
    pp := us /. float_of_int n);
  (!fj, !pp)

let table3 () =
  Report.header "Table 3: thread management (us)";
  Printf.printf "%-34s %10s %10s %10s %10s\n" "system"
    "FJ paper" "FJ ours" "PP paper" "PP ours";
  let p name (fjp, ppp) (fj, pp) =
    Printf.printf "%-34s %10.0f %10.1f %10.0f %10.1f\n" name fjp fj ppp pp;
    Report.metric ~name:(name ^ ": fork-join") fj;
    Report.metric ~name:(name ^ ": ping-pong") pp in
  let osf_kernel = measure_bl_thread_ops Os_costs.osf1 ~user:false in
  p "DEC OSF/1 kernel" (198., 21.) osf_kernel;
  p "DEC OSF/1 user (P-threads)" (1230., 264.) (measure_bl_thread_ops Os_costs.osf1 ~user:true);
  let mach_kernel = measure_bl_thread_ops Os_costs.mach3 ~user:false in
  p "Mach kernel" (101., 71.) mach_kernel;
  p "Mach user (C-Threads)" (338., 115.) (measure_bl_thread_ops Os_costs.mach3 ~user:true);
  let spin_kernel = measure_spin_thread_ops None in
  p "SPIN kernel" (22., 17.) spin_kernel;
  let spin_layered = measure_spin_thread_ops (Some layered) in
  p "SPIN user (layered)" (262., 159.) spin_layered;
  let spin_integrated = measure_spin_thread_ops (Some integrated) in
  p "SPIN user (integrated)" (111., 85.) spin_integrated;
  (* Faster on both fork-join and ping-pong. *)
  let beats (fj, pp) (fj', pp') = fj < fj' && pp < pp' in
  Report.require ~name:"the SPIN kernel beats the OSF/1 and Mach kernels"
    (beats spin_kernel osf_kernel && beats spin_kernel mach_kernel);
  Report.require ~name:"integrated C-Threads beat layered"
    (beats spin_integrated spin_layered)

(* ------------------------------------------------------------------ *)
(* Table 4                                                            *)
(* ------------------------------------------------------------------ *)

type vm_row = {
  dirty : float option;
  fault : float;
  trap : float;
  prot1 : float;
  prot100 : float;
  unprot100 : float;
  appel1 : float;
  appel2 : float;
}

let measure_spin_vm () =
  let k = Kernel.boot ~name:"t4" () in
  let ext = Vm_ext.create k.Kernel.vm ~app:"bench" ~pages:128 in
  Vm_ext.activate ext;
  (* Dirty *)
  Vm_ext.write ext ~page:5 1L;
  let dirty = Kernel.stamp_us k (fun () -> ignore (Vm_ext.dirty ext ~page:5)) in
  (* Prot1 / Prot100 / Unprot100 *)
  let prot1 = Kernel.stamp_us k (fun () ->
    Vm_ext.protect ext ~first:0 ~count:1 Addr.prot_read) in
  Vm_ext.protect ext ~first:0 ~count:1 Addr.prot_read_write;
  let prot100 = Kernel.stamp_us k (fun () ->
    Vm_ext.protect ext ~first:0 ~count:100 Addr.prot_read) in
  let unprot100 = Kernel.stamp_us k (fun () ->
    Vm_ext.protect ext ~first:0 ~count:100 Addr.prot_read_write) in
  (* Trap: fault-to-handler latency. *)
  let fault_entered = ref 0. in
  Vm_ext.on_protection_fault ext (fun page ->
    fault_entered := Kernel.elapsed_us k;
    Vm_ext.protect ext ~first:page ~count:1 Addr.prot_read_write);
  Vm_ext.protect ext ~first:3 ~count:1 Addr.prot_read;
  let start = Kernel.elapsed_us k in
  let fault = Kernel.stamp_us k (fun () -> Vm_ext.write ext ~page:3 1L) in
  let trap = !fault_entered -. start in
  (* Appel1: fault; in the handler unprotect the page, protect another. *)
  Vm_ext.on_protection_fault ext (fun page ->
    Vm_ext.protect ext ~first:page ~count:1 Addr.prot_read_write;
    Vm_ext.protect ext ~first:((page + 1) mod 128) ~count:1 Addr.prot_read);
  Vm_ext.protect ext ~first:10 ~count:1 Addr.prot_read;
  let appel1 = Kernel.stamp_us k (fun () -> Vm_ext.write ext ~page:10 1L) in
  Vm_ext.protect ext ~first:11 ~count:1 Addr.prot_read_write;
  (* Appel2: protect 100, fault on each. *)
  Vm_ext.on_protection_fault ext (fun page ->
    Vm_ext.protect ext ~first:page ~count:1 Addr.prot_read_write);
  let appel2 = Kernel.stamp_us k (fun () ->
    Vm_ext.protect ext ~first:0 ~count:100 Addr.prot_read;
    for i = 0 to 99 do Vm_ext.write ext ~page:i 1L done) /. 100. in
  { dirty = Some dirty; fault; trap; prot1; prot100; unprot100; appel1; appel2 }

let measure_bl_vm os =
  let b = Bl.create os ~name:"t4-bl" in
  Bl.vm_setup b ~pages:128;
  let prot1 = Bl.stamp_us b (fun () ->
    Bl.vm_protect b ~first:0 ~count:1 ~writable:false) in
  Bl.vm_protect b ~first:0 ~count:1 ~writable:true;
  let prot100 = Bl.stamp_us b (fun () ->
    Bl.vm_protect b ~first:0 ~count:100 ~writable:false) in
  let unprot100 = Bl.stamp_us b (fun () ->
    Bl.vm_protect b ~first:0 ~count:100 ~writable:true) in
  let trap = Bl.vm_trap_latency b in
  let fault = Bl.stamp_us b (fun () -> Bl.vm_fault_total b) in
  let appel1 = Bl.stamp_us b (fun () -> Bl.vm_appel1 b) in
  let appel2 = Bl.vm_appel2_per_page b ~pages:100 in
  { dirty = None; fault; trap; prot1; prot100; unprot100; appel1; appel2 }

let paper_osf = { dirty = None; fault = 329.; trap = 260.; prot1 = 45.;
                  prot100 = 1041.; unprot100 = 1016.; appel1 = 382.; appel2 = 351. }
let paper_mach = { dirty = None; fault = 415.; trap = 185.; prot1 = 106.;
                   prot100 = 1792.; unprot100 = 302.; appel1 = 819.; appel2 = 608. }
let paper_spin = { dirty = Some 2.; fault = 29.; trap = 7.; prot1 = 16.;
                   prot100 = 213.; unprot100 = 214.; appel1 = 39.; appel2 = 29. }

let table4 () =
  Report.header "Table 4: virtual memory operations (us, paper/measured)";
  let osf = measure_bl_vm Os_costs.osf1 in
  let mach = measure_bl_vm Os_costs.mach3 in
  let spin = measure_spin_vm () in
  Printf.printf "%-12s %16s %16s %16s\n" "operation" "DEC OSF/1" "Mach" "SPIN";
  let cell paper ours = Printf.sprintf "%.0f/%.1f" paper ours in
  let dirty_cell paper ours =
    match paper, ours with
    | Some p, Some o -> cell p o
    | _ -> "n/a" in
  let ops = [
    ("Fault", fun r -> r.fault); ("Trap", fun r -> r.trap);
    ("Prot1", fun r -> r.prot1); ("Prot100", fun r -> r.prot100);
    ("Unprot100", fun r -> r.unprot100);
    ("Appel1", fun r -> r.appel1); ("Appel2", fun r -> r.appel2);
  ] in
  List.iter
    (fun (sys, row) ->
       List.iter (fun (op, get) -> Report.metric ~name:(sys ^ ": " ^ op) (get row))
         ops;
       match row.dirty with
       | Some d -> Report.metric ~name:(sys ^ ": Dirty") d
       | None -> ())
    [ ("DEC OSF/1", osf); ("Mach", mach); ("SPIN", spin) ];
  let line name f =
    Printf.printf "%-12s %16s %16s %16s\n" name
      (f paper_osf osf) (f paper_mach mach) (f paper_spin spin) in
  line "Dirty" (fun p o -> dirty_cell p.dirty o.dirty);
  line "Fault" (fun p o -> cell p.fault o.fault);
  line "Trap" (fun p o -> cell p.trap o.trap);
  line "Prot1" (fun p o -> cell p.prot1 o.prot1);
  line "Prot100" (fun p o -> cell p.prot100 o.prot100);
  line "Unprot100" (fun p o -> cell p.unprot100 o.unprot100);
  line "Appel1" (fun p o -> cell p.appel1 o.appel1);
  line "Appel2" (fun p o -> cell p.appel2 o.appel2);
  List.iter
    (fun (op, get) ->
       Report.require ~name:("SPIN below OSF/1 and Mach: " ^ op)
         (get spin < get osf && get spin < get mach))
    ops

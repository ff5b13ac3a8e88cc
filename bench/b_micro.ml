(* Tables 2-4: protected communication, thread management, virtual
   memory. SPIN rows run on the real kernel; OSF/1 and Mach rows
   charge the baseline paths of [Bl_path] on the same kind of
   kernel's machine and scheduler. *)

module Kernel = Spin.Kernel
module Dispatcher = Spin_core.Dispatcher
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Mmu = Spin_machine.Mmu
module Machine = Spin_machine.Machine
module Cpu = Spin_machine.Cpu
module Addr = Spin_machine.Addr
module Kthread = Spin_sched.Kthread
module Vm_ext = Spin_vm.Vm_ext
module Bl_path = Spin_baseline.Bl_path
module Os_costs = Spin_baseline.Os_costs

(* Every column of Tables 2-4 runs on a fresh one-CPU kernel: the
   baselines' paths charge its machine and their threads run on its
   scheduler, so a row's columns differ only in what each system
   charges. *)
let boot name = Kernel.boot ~cpus:1 ~name ()

let iters = 64

let avg_us k thunk =
  let us = Kernel.stamp_us k (fun () -> for _ = 1 to iters do thunk () done) in
  us /. float_of_int iters

(* ------------------------------------------------------------------ *)
(* Table 2                                                            *)
(* ------------------------------------------------------------------ *)

(* The SPIN cross-address-space call: an extension that uses system
   calls to enter the kernel and cross-domain procedure calls within
   it; the transfer parks the client strand, switches to the server's
   address space, upcalls the server, and returns symmetrically. *)
let spin_cross_as_call k ctx_client ctx_server =
  let m = k.Kernel.machine in
  let clock = m.Machine.clock in
  let hw = m.Machine.cost in
  let leg target_ctx =
    ignore (Kernel.syscall k ~number:7 ~args:[||]);   (* enter kernel *)
    Clock.charge clock hw.Cost.ipc_leg_bookkeeping;   (* IPC extension *)
    Clock.charge clock (hw.Cost.context_switch + hw.Cost.ipc_handoff);
    Cpu.set_context m.Machine.cpu (Some target_ctx);  (* address space *)
    Clock.charge clock (hw.Cost.trap_exit + hw.Cost.trap_entry)
    (* upcall into the peer and back into the kernel *) in
  leg ctx_server;                                     (* request *)
  leg ctx_client                                      (* reply *)

(* Table 2's SPIN fast paths on [k], each averaged over [iters] runs:
   a protected in-kernel call (a raise of an event whose one handler
   is its default) and a null system call (number 7). The gc and
   ablation experiments rerun them. *)
let spin_fast_paths k =
  Kernel.register_syscall k ~number:7 (fun _ -> 0);
  let e = Dispatcher.declare k.Kernel.dispatcher ~name:"T2.Null" ~owner:"T2"
      (fun () -> ()) in
  let in_kernel = avg_us k (fun () -> Dispatcher.raise_event e ()) in
  let syscall = avg_us k (fun () -> ignore (Kernel.syscall k ~number:7 ~args:[||])) in
  (in_kernel, syscall)

(* A baseline's system call and cross-address-space call. *)
let bl_communication os =
  let k = boot "t2-bl" in
  let b = Bl_path.create os k.Kernel.machine in
  let syscall = avg_us k (fun () -> Bl_path.null_syscall k.Kernel.machine.Machine.clock os) in
  (syscall, avg_us k (fun () -> Bl_path.cross_address_space_call b))

let table2 () =
  Report.header "Table 2: protected communication (us)";
  Report.columns4 "operation" "paper" "measured" "system";
  let k = boot "t2" in
  let in_kernel, syscall = spin_fast_paths k in
  let ctx_c = Mmu.create_context k.Kernel.machine.Machine.mmu in
  let ctx_s = Mmu.create_context k.Kernel.machine.Machine.mmu in
  Cpu.set_context k.Kernel.machine.Machine.cpu (Some ctx_c);
  let cross = avg_us k (fun () -> spin_cross_as_call k ctx_c ctx_s) in
  let osf_sys, osf_cross = bl_communication Os_costs.osf1 in
  let mach_sys, mach_cross = bl_communication Os_costs.mach3 in
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

(* Table 3's one workload, for all seven rows: 16 fork-joins, then
   [iters] ping-pong round trips between two threads, on a bench
   thread of a fresh one-CPU kernel. A row adds its thread package's
   charges: [fork] before each fork-join's fork and [forked] after
   it, [sync] at each synchronization. Real thread packages would
   plug in here. *)
type thread_charges = {
  fork : unit -> unit;
  forked : unit -> unit;
  sync : unit -> unit;
}

let fork_join k c =
  c.fork ();
  let child = Kthread.fork k.Kernel.sched ignore in
  c.forked ();
  Kthread.join k.Kernel.sched child

let ping_pong k c =
  let s = k.Kernel.sched in
  let mu = Kthread.Mutex.create () in
  let cond = Kthread.Condition.create () in
  let turn = ref `Ping in
  let player me other () =
    Kthread.Mutex.lock s mu;
    for _ = 1 to iters do
      while !turn <> me do c.sync (); Kthread.Condition.wait s mu cond done;
      turn := other;
      c.sync ();
      Kthread.Condition.signal s cond
    done;
    Kthread.Mutex.unlock s mu in
  let a = Kthread.fork s (player `Ping `Pong) in
  let b = Kthread.fork s (player `Pong `Ping) in
  Kthread.join s a;
  Kthread.join s b

let thread_ops charges =
  let k = boot "t3" in
  Kernel.register_syscall k ~number:8 (fun _ -> 0);
  let c = charges k in
  let fj = ref 0. and pp = ref 0. in
  ignore (Kernel.spawn k ~name:"bench" (fun () ->
    let us = Kernel.stamp_us k (fun () ->
      for _ = 1 to 16 do fork_join k c done) in
    fj := us /. 16.;
    let us = Kernel.stamp_us k (fun () -> ping_pong k c) in
    pp := us /. float_of_int iters));
  Kernel.run k;
  (!fj, !pp)

let kernel_threads _ = { fork = ignore; forked = ignore; sync = ignore }

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

(* A SPIN user package traps into the kernel's system call 8. *)
let spin_user_threads pkg k =
  let library ~syscalls ~cycles () =
    for _ = 1 to syscalls do
      ignore (Kernel.syscall k ~number:8 ~args:[||])
    done;
    Clock.charge k.Kernel.machine.Machine.clock cycles in
  { fork = library ~syscalls:pkg.fork_syscalls ~cycles:pkg.fork_library;
    forked = ignore;
    sync = library ~syscalls:pkg.sync_syscalls ~cycles:pkg.sync_library }

(* OSF/1's and Mach's thread layers; a user-level package adds its
   library and its user/kernel crossings. *)
let bl_threads os ~user k =
  let clock = k.Kernel.machine.Machine.clock in
  let hw = Clock.cost clock in
  let charge = Clock.charge clock in
  let crossings () =
    if user then
      charge (os.Os_costs.user_thread_syscalls
              * (hw.Cost.trap_entry + hw.Cost.trap_exit
                 + os.Os_costs.syscall_dispatch)) in
  { fork = (fun () ->
      if user then charge os.Os_costs.user_fork_layer;
      crossings ();
      charge os.Os_costs.thread_create_extra);
    forked = crossings;
    sync = (fun () ->
      charge os.Os_costs.thread_sync_extra;
      if user then charge os.Os_costs.user_sync_layer;
      crossings ()) }

let table3 () =
  Report.header "Table 3: thread management (us)";
  Printf.printf "%-34s %10s %10s %10s %10s\n" "system"
    "FJ paper" "FJ ours" "PP paper" "PP ours";
  let p name (fjp, ppp) (fj, pp) =
    Printf.printf "%-34s %10.0f %10.1f %10.0f %10.1f\n" name fjp fj ppp pp;
    Report.metric ~name:(name ^ ": fork-join") fj;
    Report.metric ~name:(name ^ ": ping-pong") pp in
  let osf_kernel = thread_ops (bl_threads Os_costs.osf1 ~user:false) in
  p "DEC OSF/1 kernel" (198., 21.) osf_kernel;
  let osf_user = thread_ops (bl_threads Os_costs.osf1 ~user:true) in
  p "DEC OSF/1 user (P-threads)" (1230., 264.) osf_user;
  let mach_kernel = thread_ops (bl_threads Os_costs.mach3 ~user:false) in
  p "Mach kernel" (101., 71.) mach_kernel;
  let mach_user = thread_ops (bl_threads Os_costs.mach3 ~user:true) in
  p "Mach user (C-Threads)" (338., 115.) mach_user;
  let spin_kernel = thread_ops kernel_threads in
  p "SPIN kernel" (22., 17.) spin_kernel;
  let spin_layered = thread_ops (spin_user_threads layered) in
  p "SPIN user (layered)" (262., 159.) spin_layered;
  let spin_integrated = thread_ops (spin_user_threads integrated) in
  p "SPIN user (integrated)" (111., 85.) spin_integrated;
  (* Faster on both fork-join and ping-pong. *)
  let beats (fj, pp) (fj', pp') = fj < fj' && pp < pp' in
  Report.require ~name:"the SPIN kernel beats the OSF/1 and Mach kernels"
    (beats spin_kernel osf_kernel && beats spin_kernel mach_kernel);
  Report.require ~name:"integrated C-Threads beat layered"
    (beats spin_integrated spin_layered);
  Report.require ~name:"Mach kernel fork-join below OSF/1's"
    (fst mach_kernel < fst osf_kernel);
  Report.require
    ~name:"on every system, user-level threads cost more than kernel \
           threads on both operations"
    (List.for_all (fun (kernel, user) -> beats kernel user)
       [ (osf_kernel, osf_user); (mach_kernel, mach_user);
         (spin_kernel, spin_layered); (spin_kernel, spin_integrated) ])

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

(* Table 4's SPIN workload on a 128-page Vm_ext arena of [k]. [upcall] runs
   on entry to each fault handler and [service_call] before each
   protection change a handler makes: Table 4 passes [ignore], and the
   co-location ablation charges a user-level handler's crossings
   there. *)
let measure_spin_vm k ~upcall ~service_call =
  let ext = Vm_ext.create k.Kernel.vm ~app:"bench" ~pages:128 in
  Vm_ext.activate ext;
  let handler_protect ~page prot =
    service_call ();
    Vm_ext.protect ext ~first:page ~count:1 prot in
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
    upcall ();
    fault_entered := Kernel.elapsed_us k;
    handler_protect ~page Addr.prot_read_write);
  Vm_ext.protect ext ~first:3 ~count:1 Addr.prot_read;
  let start = Kernel.elapsed_us k in
  let fault = Kernel.stamp_us k (fun () -> Vm_ext.write ext ~page:3 1L) in
  let trap = !fault_entered -. start in
  (* Appel1: fault; in the handler unprotect the page, protect another. *)
  Vm_ext.on_protection_fault ext (fun page ->
    upcall ();
    handler_protect ~page Addr.prot_read_write;
    handler_protect ~page:((page + 1) mod 128) Addr.prot_read);
  Vm_ext.protect ext ~first:10 ~count:1 Addr.prot_read;
  let appel1 = Kernel.stamp_us k (fun () -> Vm_ext.write ext ~page:10 1L) in
  Vm_ext.protect ext ~first:11 ~count:1 Addr.prot_read_write;
  (* Appel2: protect 100, fault on each. *)
  Vm_ext.on_protection_fault ext (fun page ->
    upcall ();
    handler_protect ~page Addr.prot_read_write);
  let appel2 = Kernel.stamp_us k (fun () ->
    Vm_ext.protect ext ~first:0 ~count:100 Addr.prot_read;
    for i = 0 to 99 do Vm_ext.write ext ~page:i 1L done) /. 100. in
  { dirty = Some dirty; fault; trap; prot1; prot100; unprot100; appel1; appel2 }

let measure_bl_vm os =
  let k = boot "t4-bl" in
  let b = Bl_path.create os k.Kernel.machine in
  let us f = Kernel.stamp_us k f in
  let prot1 = us (fun () -> Bl_path.vm_protect b ~first:0 ~count:1 ~writable:false) in
  Bl_path.vm_protect b ~first:0 ~count:1 ~writable:true;
  let prot100 = us (fun () ->
    Bl_path.vm_protect b ~first:0 ~count:100 ~writable:false) in
  let unprot100 = us (fun () ->
    Bl_path.vm_protect b ~first:0 ~count:100 ~writable:true) in
  let trap = us (fun () -> Bl_path.vm_trap b) in
  let fault = us (fun () -> Bl_path.vm_fault b) in
  let appel1 = us (fun () -> Bl_path.vm_appel1 b) in
  let appel2 = us (fun () -> Bl_path.vm_appel2 b ~pages:100) /. 100. in
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
  let spin = measure_spin_vm (boot "t4") ~upcall:ignore ~service_call:ignore in
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

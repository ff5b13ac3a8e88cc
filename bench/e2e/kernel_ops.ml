(* kernel-ops: the paper's headline kernel paths (Tables 2-4) on one
   [Kernel.boot ~cpus:1] per round, as steps of four primitives drawn
   from a fixed mix: protected in-kernel call, system call,
   cross-address-space call, fork/join, ping-pong (1-16 round trips),
   protecting 1 to 100 pages, an Appel1 fault, a raise with one
   verified (trusted-fast) handler and with 16 guarded handlers, and a
   verified install/uninstall. Dispatch, trap, scheduler and VM code do
   all the work; networking and the file system do none. Every
   primitive's result is checked. *)

module Kernel = Spin.Kernel
module Dispatcher = Spin_core.Dispatcher
module Ebc = Spin_core.Ebc
module Ty = Spin_core.Ty
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Machine = Spin_machine.Machine
module Cpu = Spin_machine.Cpu
module Mmu = Spin_machine.Mmu
module Addr = Spin_machine.Addr
module Kthread = Spin_sched.Kthread
module Vm_ext = Spin_vm.Vm_ext
module Translation = Spin_vm.Translation

let p_raise = Probe.point "dispatcher" "raise"
let p_raise16 = Probe.point "dispatcher" "raise_guarded16"
let p_install = Probe.point "dispatcher" "install"
let p_syscall = Probe.point "kernel" "syscall"
let p_fork_join = Probe.point "sched" "fork_join"
let p_ping_pong = Probe.point "sched" "ping_pong"
let p_protect1 = Probe.point "vm_ext" "protect1"
let p_protect100 = Probe.point "vm_ext" "protect100"
let p_fault = Probe.point "vm_ext" "fault"

type probe = { port : int }

let probe_layout : probe Ebc.layout =
  Ebc.layout ~name:"Kops.Probe" ~fields:[ ("port", Ty.Int) ]
    ~read:(fun p _ -> p.port) ()

let guarded = 16
let syscall_number = 7

(* Protection changes cover pages [0, 100); the Appel1 fault walks
   pages [appel_base, pages), so the two never overlap. *)
let pages = 256
let appel_base = 128

(* An event whose primary has been retired, so the installed handlers
   are the whole implementation (the Table 2 shape). *)
let bare_event d name =
  let e =
    Dispatcher.declare d ~name ~owner:"Kops" ~layout:probe_layout
      ~allow_remove_primary:(fun ~requester:_ -> true) (fun (_ : probe) -> -1) in
  (match Dispatcher.remove_primary e ~requester:"Kops" with
   | Ok () -> ()
   | Error `Denied -> failwith "kernel-ops: primary removal denied");
  e

let must = function
  | Ok h -> h
  | Error e -> failwith ("kernel-ops: " ^ Dispatcher.install_error_to_string e)

(* The cross-address-space call of bench/ Table 2: syscall into the
   kernel, the IPC extension's bookkeeping, a switch to the peer's
   address space, and the upcall, once each way. *)
let ipc_leg_bookkeeping = 2_970

let cross_as_call k ctx_client ctx_server =
  let m = k.Kernel.machine in
  let hw = m.Machine.cost in
  let leg target =
    ignore (Kernel.syscall k ~number:syscall_number ~args:[| 0 |]);
    Clock.charge m.Machine.clock ipc_leg_bookkeeping;
    Clock.charge m.Machine.clock (hw.Cost.context_switch + 160);
    Cpu.set_context m.Machine.cpu (Some target);
    Clock.charge m.Machine.clock (hw.Cost.trap_exit + hw.Cost.trap_entry) in
  leg ctx_server;
  leg ctx_client;
  match Cpu.context m.Machine.cpu with Some c -> c == ctx_client | None -> false

let ping_pong k ~iters =
  let s = k.Kernel.sched in
  let mu = Kthread.Mutex.create () and cond = Kthread.Condition.create () in
  let turn = ref 0 and exchanges = ref 0 in
  let player me () =
    Kthread.Mutex.lock s mu;
    for _ = 1 to iters do
      while !turn <> me do Kthread.Condition.wait s mu cond done;
      turn := 1 - me;
      incr exchanges;
      Kthread.Condition.signal s cond
    done;
    Kthread.Mutex.unlock s mu in
  let a = Kthread.fork s (player 0) and b = Kthread.fork s (player 1) in
  Kthread.join s a;
  Kthread.join s b;
  !exchanges = 2 * iters

(* The primitive mix, by weight. One operation is an application step
   of [step] primitives drawn from it: a single primitive's latency
   sits on one of a dozen values, while a step's spreads densely, so
   its percentiles move with small changes anywhere in the mix. *)
let step = 4

type op =
  | Call | Syscall | Cross_as | Fork_join | Ping_pong | Prot1 | Prot100
  | Protect_n | Appel1 | Raise_trusted | Raise_guarded16 | Install

let mix =
  [| (Call, 2.); (Syscall, 2.); (Cross_as, 1.); (Fork_join, 2.); (Ping_pong, 3.);
     (Prot1, 1.); (Prot100, 1.); (Protect_n, 3.); (Appel1, 2.); (Raise_trusted, 2.);
     (Raise_guarded16, 2.); (Install, 2.) |]

let setup (r : Fixture.round) =
  let k = Kernel.boot ~cpus:1 ~name:"kernel-ops" () in
  let m = k.Kernel.machine and d = k.Kernel.dispatcher in
  let clock = m.Machine.clock in
  Kernel.register_syscall k ~number:syscall_number (fun args -> args.(0) + 1);
  let null = Dispatcher.declare d ~name:"Kops.Null" ~owner:"Kops" (fun x -> x + 1) in
  let trusted = bare_event d "Kops.Trusted" in
  ignore (must (Dispatcher.install trusted ~installer:"kops"
                  ~spec:(Dispatcher.Handler_spec.verified (Ebc.match_field ~slot:0 7))
                  (fun p -> p.port + 1)));
  let demux = bare_event d "Kops.Demux" in
  for port = 0 to guarded - 1 do
    ignore (must (Dispatcher.install demux ~installer:"kops"
                    ~spec:(Dispatcher.Handler_spec.guarded (fun p -> p.port = port))
                    (fun p -> p.port * 3)))
  done;
  let churn = bare_event d "Kops.Churn" in
  let vm = Vm_ext.create k.Kernel.vm ~app:"kops" ~pages in
  Vm_ext.activate vm;
  (* The cross-address-space call runs from the application's space. *)
  let ctx_client = Translation.mmu_context (Vm_ext.context vm) in
  let ctx_server = Mmu.create_context m.Machine.mmu in
  (* Appel1: the handler unprotects the faulting page and protects the
     next, so exactly one page of the walk is read-only at a time. *)
  let faults = ref 0 and appel_page = ref appel_base in
  let next_appel page = appel_base + ((page + 1 - appel_base) mod (pages - appel_base)) in
  Vm_ext.on_protection_fault vm (fun page ->
    incr faults;
    Vm_ext.protect vm ~first:page ~count:1 Addr.prot_read_write;
    Vm_ext.protect vm ~first:(next_appel page) ~count:1 Addr.prot_read);
  Vm_ext.protect vm ~first:appel_base ~count:1 Addr.prot_read;
  let ops = Inputs.exact_mix r.rng (Array.map snd mix) (r.size * step) in
  (* Parameters are drawn independently, so a seed moves the totals a
     little (the kinds' shares are exact). *)
  let param ~lo ~hi () = Inputs.draw r.rng ~lo ~hi in
  let iters = param ~lo:1 ~hi:16 and width = param ~lo:2 ~hi:99 in
  let demux_port = param ~lo:0 ~hi:(guarded - 1) and install_port = param ~lo:0 ~hi:1023 in
  (* Protect [n] pages read-only (the timed Table 4 call), then
     unprotect them. *)
  let protect ?probe n =
    let ro () = Vm_ext.protect vm ~first:0 ~count:n Addr.prot_read in
    (match probe with Some p -> Probe.call clock p ro | None -> ro ());
    Vm_ext.protect vm ~first:0 ~count:n Addr.prot_read_write;
    true in
  let run_op op =
    let call p f = Probe.call clock p f in
    match op with
    | Call -> Dispatcher.raise_event null 41 = 42
    | Syscall ->
      call p_syscall (fun () -> Kernel.syscall k ~number:syscall_number ~args:[| 9 |]) = 10
    | Cross_as -> cross_as_call k ctx_client ctx_server
    | Fork_join ->
      call p_fork_join (fun () ->
          let ran = ref false in
          Kthread.join k.Kernel.sched (Kthread.fork k.Kernel.sched (fun () -> ran := true));
          !ran)
    | Ping_pong ->
      let iters = iters () in
      let c0 = Clock.now clock and h0 = Probe.now_ns () in
      let ok = ping_pong k ~iters in
      if Probe.counting () then
        Probe.record p_ping_pong ~cycles:((Clock.now clock - c0) / iters)
          ~ns:((Probe.now_ns () - h0) / iters);
      ok
    | Prot1 -> protect ~probe:p_protect1 1
    | Prot100 -> protect ~probe:p_protect100 100
    | Protect_n -> protect (width ())
    | Appel1 ->
      let before = !faults and page = !appel_page in
      call p_fault (fun () -> Vm_ext.write vm ~page (Int64.of_int page));
      appel_page := next_appel page;
      !faults = before + 1 && Vm_ext.read vm ~page = Int64.of_int page
    | Raise_trusted -> call p_raise (fun () -> Dispatcher.raise_event trusted { port = 7 }) = 8
    | Raise_guarded16 ->
      let port = demux_port () in
      call p_raise16 (fun () -> Dispatcher.raise_event demux { port }) = port * 3
    | Install ->
      let port = install_port () in
      let h =
        call p_install (fun () ->
            Dispatcher.install churn ~installer:"kops"
              ~spec:(Dispatcher.Handler_spec.verified (Ebc.match_field ~slot:0 port))
              (fun p -> p.port)) in
      (match h with
       | Ok h ->
         let ok = Dispatcher.raise_event churn { port } = port in
         Dispatcher.uninstall churn h;
         ok
       | Error _ -> false) in
  let go () =
    Fixture.watch_runnable [ k.Kernel.sched ];
    let t_start = Clock.now clock in
    ignore (Kernel.spawn k ~name:"steps" (fun () ->
      for i = 0 to r.size - 1 do
        let t0 = Clock.now clock in
        let ok = ref true in
        for j = i * step to ((i + 1) * step) - 1 do
          if not (run_op (fst mix.(ops.(j)))) then ok := false
        done;
        Fixture.finish r ~ok:!ok (Clock.now clock - t0)
      done;
      r.elapsed <- Clock.now clock - t_start));
    Kernel.run k in
  let read () =
    let tr = Translation.stats k.Kernel.vm.Spin_vm.Vm.trans in
    Fixture.machine_counters ~sim:m.Machine.sim ~machines:[ m ]
      ~scheds:[ k.Kernel.sched ] ~net_events:[] ()
    @ [ ("translation.faults",
         tr.Translation.faults_not_present + tr.Translation.faults_bad_address
         + tr.Translation.faults_protection) ] in
  { Fixture.clock; read; go;
    audit = Fixture.audit_kernels [ k.Kernel.sched ] [ d ] }

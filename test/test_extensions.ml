(* Tests for the subsystems' stats and the dispatcher's explicit
   closure support. *)

open Alcotest
open Spin_net
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Nic = Spin_machine.Nic
module Machine = Spin_machine.Machine
module Sched = Spin_sched.Sched
module Dispatcher = Spin_core.Dispatcher

let addr_a = Ip.addr_of_quad 10 0 0 1
let addr_b = Ip.addr_of_quad 10 0 0 2

let run_on hosts host body =
  let failure = ref None in
  ignore (Sched.spawn host.Host.sched ~name:"t" (fun () ->
    try body () with e -> failure := Some e));
  Host.run_all hosts;
  match !failure with Some e -> raise e | None -> ()

(* ------------------------------------------------------------------ *)
(* Subsystem stats                                                    *)
(* ------------------------------------------------------------------ *)

(* A short two-host run with a fuzzed kernel beside it: each subsystem's
   own stats record or accessor shows the work it did. *)
let test_subsystem_stats () =
  let module Kernel = Spin.Kernel in
  let module Fuzz = Spin_sched.Sched_fuzz in
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let a = Host.create ~cpus:2 sim ~name:"a" ~addr:addr_a in
  let b = Host.create ~cpus:2 sim ~name:"b" ~addr:addr_b in
  let netif, netif_b = Host.wire a b ~kind:Nic.Lance in
  let k = Kernel.boot ~cpus:2 () in
  let fz = Kernel.attach_fuzz ~seed:7 k in
  run_on [ a; b ] a (fun () -> Sched.yield a.Host.sched);
  ignore (Kernel.spawn k ~name:"w" (fun () -> Sched.yield k.Kernel.sched));
  Kernel.run k;
  check bool "switches counted" true
    ((Sched.stats a.Host.sched).Sched.switches > 0);
  let fs = Fuzz.stats fz in
  check int "fuzz seed" 7 fs.Fuzz.seed;
  check bool "fuzzer decided" true (fs.Fuzz.decisions > 0);
  check int "no drops at an idle driver" 0 (Netif.drops netif);
  (* A reading is a snapshot: after more work a fresh reading has
     moved, and the one taken before has not. *)
  let module Cpu = Spin_machine.Cpu in
  let module Translation = Spin_vm.Translation in
  let module Kheap = Spin_kgc.Kheap in
  let trans = k.Kernel.vm.Spin_vm.Vm.trans in
  let cpu = k.Kernel.machine.Machine.cpu in
  let snapshot name read count =
    let earlier = read () in
    let n = count earlier in
    fun () ->
      check int (name ^ ": the earlier reading stands") n (count earlier);
      check bool (name ^ ": a fresh reading moved") true (count (read ()) > n)
  in
  let readings =
    [ snapshot "Dispatcher"
        (fun () -> Dispatcher.stats (Netif.rx_event netif_b))
        (fun s -> s.Dispatcher.raises);
      snapshot "Sched" (fun () -> Sched.stats a.Host.sched)
        (fun s -> s.Sched.switches);
      snapshot "Ip" (fun () -> Ip.stats a.Host.ip) (fun s -> s.Ip.sent);
      snapshot "Tcp" (fun () -> Tcp.stats a.Host.tcp)
        (fun s -> s.Tcp.segments_sent);
      snapshot "Active_msg" (fun () -> Active_msg.stats b.Host.am)
        (fun s -> s.Active_msg.dropped);
      snapshot "Sched_fuzz" (fun () -> Fuzz.stats fz)
        (fun s -> s.Fuzz.decisions);
      snapshot "Cpu" (fun () -> Cpu.trap_stats cpu) (fun s -> s.Cpu.entries);
      snapshot "Translation" (fun () -> Translation.stats trans)
        (fun s -> s.Translation.faults_bad_address);
      snapshot "Kheap" (fun () -> Kheap.stats k.Kernel.heap)
        (fun s -> s.Kheap.collections) ] in
  run_on [ a; b ] a (fun () ->
    ignore (Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80);
    ignore (Active_msg.send a.Host.am ~dst:addr_b ~handler:0
              (Bytes.of_string "x")));
  ignore (Kernel.spawn k ~name:"w2" (fun () -> Sched.yield k.Kernel.sched));
  Kernel.run k;
  Cpu.set_context cpu
    (Some (Translation.mmu_context
             (Translation.create_context trans ~owner:"t")));
  (match Cpu.load_word cpu ~va:0xdead0000 with
   | _ -> fail "an unmapped load resolved"
   | exception Cpu.Unhandled_trap _ -> ());
  Kheap.collect k.Kernel.heap;
  List.iter (fun check_reading -> check_reading ()) readings

(* ------------------------------------------------------------------ *)
(* Dispatcher closures (paper footnote 1)                             *)
(* ------------------------------------------------------------------ *)

let test_closure_handler_contexts () =
  let clock = Clock.create Cost.alpha_133 in
  let d = Dispatcher.create clock in
  let e = Dispatcher.declare d ~name:"Ev" ~owner:"M"
      (fun (_ : int) -> ()) in
  let log = ref [] in
  (* One handler procedure serves two contexts: each install partially
     applies it to its own closure. *)
  let handler ctx arg = log := (ctx, arg) :: !log in
  let serve ctx parity =
    match
      Dispatcher.install e ~installer:"x"
        ~spec:(Dispatcher.Handler_spec.guarded (fun arg -> arg mod 2 = parity))
        (handler ctx)
    with
    | Ok _ -> ()
    | Error err -> fail (Dispatcher.install_error_to_string err) in
  serve "ctx-A" 0;
  serve "ctx-B" 1;
  List.iter (Dispatcher.raise_event e) [ 1; 2; 3 ];
  check (list (pair string int)) "closures distinguish contexts"
    [ ("ctx-B", 1); ("ctx-A", 2); ("ctx-B", 3) ]
    (List.rev !log)

let () =
  Alcotest.run "spin_extensions"
    [
      ( "stats",
        [ test_case "subsystems count the run" `Quick test_subsystem_stats ] );
      ( "closures",
        [ test_case "one handler, many contexts" `Quick test_closure_handler_contexts ] );
    ]

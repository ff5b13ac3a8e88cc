(* Tests for the auxiliary extensions: the network debugger, the
   passive monitor, and the dispatcher's explicit closure support. *)

open Alcotest
open Spin_net
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Nic = Spin_machine.Nic
module Machine = Spin_machine.Machine
module Sched = Spin_sched.Sched
module Dispatcher = Spin_core.Dispatcher
module Monitor = Spin.Monitor

let addr_a = Ip.addr_of_quad 10 0 0 1
let addr_b = Ip.addr_of_quad 10 0 0 2

let host_pair () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let a = Host.create sim ~name:"a" ~addr:addr_a in
  let b = Host.create sim ~name:"b" ~addr:addr_b in
  ignore (Host.wire a b ~kind:Nic.Lance);
  (clock, a, b)

let run_on hosts host body =
  let failure = ref None in
  ignore (Sched.spawn host.Host.sched ~name:"t" (fun () ->
    try body () with e -> failure := Some e));
  Host.run_all hosts;
  match !failure with Some e -> raise e | None -> ()

(* ------------------------------------------------------------------ *)
(* Network debugger                                                   *)
(* ------------------------------------------------------------------ *)

let test_netdbg_alive () =
  let _, a, b = host_pair () in
  let dbg = Netdbg.serve b b.Host.sched in
  run_on [ a; b ] a (fun () ->
    check bool "debugged kernel answers" true
      (Netdbg.query_alive a ~dst:addr_b ()));
  check bool "served" true (Netdbg.queries_served dbg >= 1)

let test_netdbg_stats () =
  let _, a, b = host_pair () in
  ignore (Netdbg.serve b b.Host.sched);
  (* Create some activity on b. *)
  ignore (Sched.spawn b.Host.sched ~name:"w1" (fun () -> ()));
  ignore (Sched.spawn b.Host.sched ~name:"w2" (fun () -> ()));
  run_on [ a; b ] a (fun () ->
    match Netdbg.query_stats a ~dst:addr_b () with
    | Some r ->
      check bool "strands observed" true (r.Netdbg.strands_spawned >= 2);
      check bool "events declared" true (r.Netdbg.events_declared > 5)
    | None -> fail "no stats reply")

let test_netdbg_peek () =
  let _, a, b = host_pair () in
  ignore (Netdbg.serve b b.Host.sched);
  Spin_machine.Phys_mem.write_word b.Host.machine.Machine.mem ~pa:4096
    0xDEADBEEFL;
  run_on [ a; b ] a (fun () ->
    check (option int64) "peek remote memory" (Some 0xDEADBEEFL)
      (Netdbg.query_peek a ~dst:addr_b ~pa:4096 ());
    check (option int64) "out-of-range refused" None
      (Netdbg.query_peek a ~dst:addr_b ~pa:max_int ()))

let test_netdbg_timeout () =
  let _, a, b = host_pair () in
  ignore b;                               (* nobody serves *)
  run_on [ a; b ] a (fun () ->
    check bool "no debugger, no answer" false
      (Netdbg.query_alive a ~dst:addr_b ()))

(* ------------------------------------------------------------------ *)
(* Monitor                                                            *)
(* ------------------------------------------------------------------ *)

let test_monitor_counts () =
  let clock = Clock.create Cost.alpha_133 in
  let d = Dispatcher.create clock in
  let m = Monitor.create clock in
  let e = Dispatcher.declare d ~name:"Svc.Op" ~owner:"Svc" (fun x -> x + 1) in
  Monitor.watch m e;
  for i = 1 to 5 do
    check int "result undisturbed" (i + 1) (Dispatcher.raise_event e i)
  done;
  check (list (pair string int)) "counted" [ ("Svc.Op", 5) ] (Monitor.counts m)

let test_monitor_per_instance () =
  let clock = Clock.create Cost.alpha_133 in
  let d = Dispatcher.create clock in
  let m = Monitor.create clock in
  let e = Dispatcher.declare d ~name:"IP.PacketArrived" ~owner:"IP"
      ~combine:(fun _ -> ()) (fun (_ : int) -> ()) in
  Monitor.watch_with m e ~interest:(fun proto -> proto = 17);
  List.iter (Dispatcher.raise_event e) [ 17; 6; 17; 1 ];
  check (list (pair string int)) "only the instance of interest"
    [ ("IP.PacketArrived", 2) ] (Monitor.counts m)

let test_monitor_report_format () =
  let clock = Clock.create Cost.alpha_133 in
  let d = Dispatcher.create clock in
  let m = Monitor.create clock in
  let e = Dispatcher.declare d ~name:"Ev" ~owner:"M" (fun () -> ()) in
  Monitor.watch m e;
  Dispatcher.raise_event e ();
  Clock.charge clock 133_000;             (* a virtual millisecond *)
  let r = Monitor.report m in
  check bool "mentions the event" true
    (String.length r > 0
     && (let rec find i =
           i + 2 <= String.length r && (String.sub r i 2 = "Ev" || find (i + 1)) in
         find 0))

(* ------------------------------------------------------------------ *)
(* Dispatcher closures (paper footnote 1)                             *)
(* ------------------------------------------------------------------ *)

let test_closure_handler_contexts () =
  let clock = Clock.create Cost.alpha_133 in
  let d = Dispatcher.create clock in
  let e = Dispatcher.declare d ~name:"Ev" ~owner:"M"
      ~combine:(fun _ -> ()) (fun (_ : int) -> ()) in
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
      ( "netdbg",
        [
          test_case "alive" `Quick test_netdbg_alive;
          test_case "stats" `Quick test_netdbg_stats;
          test_case "peek memory" `Quick test_netdbg_peek;
          test_case "timeout without server" `Quick test_netdbg_timeout;
        ] );
      ( "monitor",
        [
          test_case "counts without disturbing" `Quick test_monitor_counts;
          test_case "per-instance interest" `Quick test_monitor_per_instance;
          test_case "report" `Quick test_monitor_report_format;
        ] );
      ( "closures",
        [ test_case "one handler, many contexts" `Quick test_closure_handler_contexts ] );
    ]

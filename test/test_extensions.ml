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
  Monitor.watch m e ~interest:(fun proto -> proto = 17);
  List.iter (Dispatcher.raise_event e) [ 17; 6; 17; 1 ];
  check (list (pair string int)) "only the instance of interest"
    [ ("IP.PacketArrived", 2) ] (Monitor.counts m)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

let test_monitor_report_format () =
  let clock = Clock.create Cost.alpha_133 in
  let d = Dispatcher.create clock in
  let m = Monitor.create clock in
  let e = Dispatcher.declare d ~name:"Ev" ~owner:"M" (fun () -> ()) in
  Monitor.watch m e;
  Dispatcher.raise_event e ();
  Clock.charge clock 133_000;             (* a virtual millisecond *)
  check bool "mentions the event" true (contains (Monitor.report m) "Ev")

(* Each subsystem names its own gauges, and readers of the monitor's
   report key on these exact strings, so the test pins every name in
   order and checks a sample from each list against the subsystem's
   stats. *)
let test_subsystem_gauge_names () =
  let module Trace = Spin_machine.Trace in
  let module Kernel = Spin.Kernel in
  let module Fuzz = Spin_sched.Sched_fuzz in
  let module Phys_addr = Spin_vm.Phys_addr in
  let open Spin_fs in
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let a = Host.create ~cpus:2 sim ~name:"a" ~addr:addr_a in
  let b = Host.create ~cpus:2 sim ~name:"b" ~addr:addr_b in
  let netif, _ = Host.wire a b ~kind:Nic.Lance in
  let nic = Machine.add_nic a.Host.machine ~kind:Nic.T3 in
  let k = Kernel.boot ~cpus:2 () in
  let fz = Kernel.attach_fuzz ~seed:7 k in
  let disk = Machine.add_disk ~blocks:4096 a.Host.machine in
  let bc =
    Block_cache.create ~phys:a.Host.phys a.Host.machine a.Host.sched disk in
  let fc = ref None in
  let tr = Trace.of_clock clock in
  Trace.enable tr;
  run_on [ a; b ] a (fun () ->
    let fs = Simple_fs.format bc ~blocks:4096 () in
    Simple_fs.create fs ~name:"f";
    Simple_fs.write fs ~name:"f" (Bytes.of_string "cached");
    let c = File_cache.create ~phys:a.Host.phys fs in
    ignore (File_cache.fetch c ~name:"f");
    ignore (File_cache.fetch c ~name:"f");
    Trace.with_span tr ~cat:"test" ~name:"span" (fun () ->
      Clock.charge clock 1330);
    fc := Some c);
  ignore (Kernel.spawn k ~name:"w" (fun () -> Sched.yield k.Kernel.sched));
  Kernel.run k;
  let fc = Option.get !fc in
  let subsystems =
    [ ("nic", Nic.gauges nic, [ "t3-dma.rx_dropped" ]);
      ("netif", Netif.gauges netif, [ "Ether.rx_dropped" ]);
      ("supervisor", Spin.Supervisor.gauges k.Kernel.supervisor,
       [ "supervisor.faults"; "supervisor.restarts"; "supervisor.quarantines";
         "supervisor.backoff_capped"; "supervisor.backoff_resets";
         "supervisor.revoked_uses" ]);
      ("dispatcher", Dispatcher.gauges k.Kernel.dispatcher,
       [ "dispatch.trusted_handlers"; "dispatch.trusted_fast";
         "dispatch.verifier_rejections" ]);
      ("swap", Spin.Swap.gauges k.Kernel.swap,
       [ "swap.swaps"; "swap.failed"; "swap.held_raises";
         "swap.swept_handlers" ]);
      ("sched", Sched.gauges a.Host.sched,
       [ "sched.runnable"; "sched.switches"; "sched.preemptions";
         "sched.steals"; "sched.ipi_wakeups"; "sched.ipis_in_flight";
         "sched.pending_wakeups" ]);
      ("fuzz", Fuzz.gauges fz,
       [ "fuzz.seed"; "fuzz.decisions"; "fuzz.injected_preempts";
         "fuzz.violations" ]);
      ("mem", Phys_addr.gauges a.Host.phys,
       [ "mem.total_pages"; "mem.free_pages"; "mem.reclaims";
         "mem.oom_failures" ]);
      ("block cache",
       Cache_stats.gauges ~name:"block_cache" (fun () -> Block_cache.stats bc),
       [ "block_cache.hits"; "block_cache.misses"; "block_cache.bytes_cached";
         "block_cache.reclaims" ]);
      ("file cache",
       Cache_stats.gauges ~name:"file_cache" (fun () -> File_cache.stats fc),
       [ "file_cache.hits"; "file_cache.misses"; "file_cache.bytes_cached";
         "file_cache.reclaims" ]);
      ("engine", Sim.gauges sim,
       [ "engine.events_live"; "engine.events_fired";
         "engine.events_cancelled"; "engine.event_pool_hits";
         "engine.event_pool_misses" ]);
      ("trace", Trace.gauges tr,
       [ "trace.ring_reused"; "trace.ring_fresh"; "trace.span_pool_hits";
         "trace.span_pool_misses" ]) ] in
  List.iter
    (fun (label, gauges, names) ->
      check (list string) (label ^ " gauge names") names (List.map fst gauges))
    subsystems;
  let m = Monitor.create clock in
  List.iter (fun (_, gauges, _) -> Monitor.watch_gauges m gauges) subsystems;
  let g name = List.assoc name (Monitor.gauges m) in
  check (list string) "monitor keeps registration order"
    (List.concat_map (fun (_, _, names) -> names) subsystems)
    (List.map fst (Monitor.gauges m));
  let sched = Sched.stats a.Host.sched in
  check bool "switches counted" true (sched.Sched.switches > 0);
  check int "sched.switches samples stats" sched.Sched.switches
    (g "sched.switches");
  check int "fuzz.seed" 7 (g "fuzz.seed");
  check bool "fuzzer decided" true (g "fuzz.decisions" > 0);
  check int "fuzz.decisions samples stats" (Fuzz.stats fz).Fuzz.decisions
    (g "fuzz.decisions");
  check int "mem.free_pages samples the service"
    (Phys_addr.free_pages a.Host.phys) (g "mem.free_pages");
  check int "file_cache.hits" 1 (g "file_cache.hits");
  check int "file_cache.misses" 1 (g "file_cache.misses");
  check int "block_cache.misses samples stats"
    (Block_cache.stats bc).Cache_stats.misses (g "block_cache.misses");
  check int "engine.events_fired samples stats" (Sim.stats sim).Sim.fired
    (g "engine.events_fired");
  check int "trace.span_pool_misses samples pool stats"
    (Trace.pool_stats tr).Trace.span_misses (g "trace.span_pool_misses");
  check int "Ether.rx_dropped samples the driver" (Netif.drops netif)
    (g "Ether.rx_dropped");
  check bool "report appends the clock's latency aggregates" true
    (contains (Monitor.report m) "test.span")

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
          test_case "subsystem gauge names" `Quick test_subsystem_gauge_names;
        ] );
      ( "closures",
        [ test_case "one handler, many contexts" `Quick test_closure_handler_contexts ] );
    ]

(* Tests for the subsystems' health gauges and the dispatcher's
   explicit closure support. *)

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
(* Health gauges                                                      *)
(* ------------------------------------------------------------------ *)

(* Each subsystem names its own gauges, and readers key on these exact
   strings, so the test pins every name in order and checks a sample
   from each list against the subsystem's stats. *)
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
  run_on [ a; b ] a (fun () ->
    let fs = Simple_fs.format bc ~blocks:4096 () in
    Simple_fs.create fs ~name:"f";
    Simple_fs.write fs ~name:"f" (Bytes.of_string "cached");
    let c = File_cache.create ~phys:a.Host.phys fs in
    ignore (File_cache.fetch c ~name:"f");
    ignore (File_cache.fetch c ~name:"f");
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
  let all = List.concat_map (fun (_, gauges, _) -> gauges) subsystems in
  let g name = List.assoc name all () in
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
  check int "Ether.rx_dropped samples the driver" (Netif.drops netif)
    (g "Ether.rx_dropped")

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
      ( "monitor",
        [
          test_case "subsystem gauge names" `Quick test_subsystem_gauge_names;
        ] );
      ( "closures",
        [ test_case "one handler, many contexts" `Quick test_closure_handler_contexts ] );
    ]

(* Failure injection: lossy wires, receive-ring overflow, faulting
   extension handlers, and rogue extensions generally. The theme is
   the paper's section 4.3: failures stay isolated to the extension
   (and peer) that caused them. *)

open Alcotest
open Spin_net
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Nic = Spin_machine.Nic
module Link = Spin_machine.Link
module Machine = Spin_machine.Machine
module Sched = Spin_sched.Sched
module Dispatcher = Spin_core.Dispatcher
module Capability = Spin_core.Capability
module Kdomain = Spin_core.Kdomain
module Nameserver = Spin_core.Nameserver
module Object_file = Spin_core.Object_file
module Kernel = Spin.Kernel

let must r = Dispatcher.ok_exn ~site:"test_faults" r

let addr_a = Ip.addr_of_quad 10 0 0 1
let addr_b = Ip.addr_of_quad 10 0 0 2

(* Host.wire hides the link, so build the lossy topology by hand. *)
let lossy_hosts ~every =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let a = Host.create sim ~name:"a" ~addr:addr_a in
  let b = Host.create sim ~name:"b" ~addr:addr_b in
  let nic_a = Machine.add_nic a.Host.machine ~kind:Nic.Lance in
  let nic_b = Machine.add_nic b.Host.machine ~kind:Nic.Lance in
  let link = Link.create sim ~mbps:(Nic.link_mbps Nic.Lance) () in
  Nic.attach nic_a link Link.A;
  Nic.attach nic_b link Link.B;
  Link.set_loss link ~every;
  let na = Netif.create a.Host.machine a.Host.sched a.Host.dispatcher nic_a
      ~name:"Ether" in
  let nb = Netif.create b.Host.machine b.Host.sched b.Host.dispatcher nic_b
      ~name:"Ether" in
  Ip.add_interface a.Host.ip na ~addr:addr_a;
  Ip.add_interface b.Host.ip nb ~addr:addr_b;
  Ip.add_route a.Host.ip ~dst:addr_b na;
  Ip.add_route b.Host.ip ~dst:addr_a nb;
  Netif.start na;
  Netif.start nb;
  (clock, a, b, link)

let test_udp_lossy_wire_drops_silently () =
  let _, a, b, link = lossy_hosts ~every:3 in
  let received = ref 0 in
  ignore (Udp.listen b.Host.udp ~port:9 ~installer:"sink"
            (fun _ -> incr received));
  ignore (Sched.spawn a.Host.sched ~name:"send" (fun () ->
    for _ = 1 to 9 do
      ignore (Udp.send a.Host.udp ~dst:addr_b ~port:9 (Bytes.create 32))
    done));
  Host.run_all [ a; b ];
  check int "a third of the datagrams vanished" 6 !received;
  check int "wire counted the drops" 3 (Link.frames_dropped link)

let test_tcp_retransmits_through_loss () =
  (* Every 5th frame disappears; TCP must still deliver the exact
     stream, paying retransmission timeouts. *)
  let clock, a, b, link = lossy_hosts ~every:5 in
  let received = Buffer.create 4096 in
  Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun conn ->
    Tcp.on_receive conn (fun data -> Buffer.add_bytes received data));
  let payload = Bytes.init 6_000 (fun i -> Char.chr (i land 0xff)) in
  let connected = ref false in
  ignore (Sched.spawn a.Host.sched ~name:"send" (fun () ->
    match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> ()
    | Some conn ->
      connected := true;
      Tcp.send a.Host.tcp conn payload;
      (* Give retransmission time to finish the job. *)
      Sched.sleep_us a.Host.sched 3_000_000.));
  Host.run_all [ a; b ];
  check bool "handshake survived loss" true !connected;
  check bytes "stream intact despite drops" payload (Buffer.to_bytes received);
  check bool "retransmissions happened" true
    ((Tcp.stats a.Host.tcp).Tcp.retransmits > 0);
  check bool "frames really were lost" true (Link.frames_dropped link > 0);
  check bool "loss cost real time" true (Clock.now_us clock > 200_000.)

let test_tcp_gives_up_on_dead_wire () =
  (* Total blackout: the handshake retries, then fails cleanly. *)
  let _, a, b, link = lossy_hosts ~every:1 in
  ignore b;
  Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun _ -> ());
  let result = ref (Some "unset") in
  ignore (Sched.spawn a.Host.sched ~name:"connect" (fun () ->
    match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> result := None
    | Some _ -> result := Some "connected"));
  Host.run_all [ a; b ];
  check bool "connect returned None" true (!result = None);
  check bool "everything was dropped" true (Link.frames_dropped link >= 8)

let test_rx_ring_overflow_drops () =
  (* A burst larger than the 64-frame receive ring, delivered while
     the receiving host cannot drain (its scheduler never runs until
     the burst is over): the extras are dropped at the device, and the
     counter says so. *)
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let a = Machine.create_on sim ~name:"a" () in
  let b = Machine.create_on sim ~name:"b" () in
  let nic_a, nic_b = Machine.connect a b ~kind:Nic.Lance () in
  for _ = 1 to 80 do
    ignore (Nic.transmit nic_a ~off:0 ~len:64 (Bytes.create 64))
  done;
  Sim.run sim;
  let rec drain n =
    if Nic.rx_pending nic_b then (ignore (Nic.receive nic_b); drain (n + 1))
    else n in
  check int "ring holds its capacity" 64 (drain 0);
  check int "the rest were dropped" 16 (Nic.rx_dropped nic_b)

(* ------------------------------------------------------------------ *)
(* Faulting extension handlers                                        *)
(* ------------------------------------------------------------------ *)

let test_handler_exception_isolated () =
  let clock = Clock.create Cost.alpha_133 in
  let d = Dispatcher.create clock in
  let e = Dispatcher.declare d ~name:"Svc.Op" ~owner:"Svc"
      (fun (_ : int) -> ()) in
  let healthy = ref 0 in
  ignore (must @@ Dispatcher.install e ~installer:"rogue"
            (fun _ -> failwith "rogue extension bug"));
  ignore (must @@ Dispatcher.install e ~installer:"healthy"
            (fun _ -> incr healthy));
  (* The raise survives and the healthy handler still runs. *)
  Dispatcher.raise_event e 1;
  check int "healthy handler ran" 1 !healthy;
  check int "failure recorded" 1 (Dispatcher.stats e).Dispatcher.handler_failures;
  (* The rogue handler was uninstalled: no more failures. *)
  Dispatcher.raise_event e 2;
  check int "rogue evicted after first fault" 1
    (Dispatcher.stats e).Dispatcher.handler_failures;
  check int "healthy keeps running" 2 !healthy

let test_primary_exception_propagates () =
  (* The default implementation is trusted; its failure is the
     caller's problem, as with any procedure call. *)
  let clock = Clock.create Cost.alpha_133 in
  let d = Dispatcher.create clock in
  let e = Dispatcher.declare d ~name:"Svc.Bad" ~owner:"Svc"
      (fun () -> failwith "trusted service bug") in
  check_raises "propagates" (Failure "trusted service bug")
    (fun () -> Dispatcher.raise_event e ())

let test_fast_path_sole_extension_fault_contained () =
  (* Regression: with the primary removed and exactly one unguarded
     synchronous extension handler left, dispatch takes the fast path.
     That path used to call the handler raw, so an extension exception
     escaped raise_event — uncounted, unreported, its failure policy
     skipped — as if the extension were trusted. *)
  let clock = Clock.create Cost.alpha_133 in
  let d = Dispatcher.create clock in
  let e = Dispatcher.declare d ~name:"Svc.Op" ~owner:"Svc"
      ~allow_remove_primary:(fun ~requester:_ -> true)
      (fun (_ : int) -> ()) in
  check bool "primary removed" true
    (Dispatcher.remove_primary e ~requester:"ext" = Ok ());
  ignore (must @@ Dispatcher.install e ~installer:"ext"
            (fun _ -> failwith "sole extension bug"));
  (* Must not escape, even though dispatch collapses to the fast path. *)
  Dispatcher.raise_default e () 1;
  let st = Dispatcher.stats e in
  check bool "fast path was taken" true (st.Dispatcher.fast_path >= 1);
  check int "failure caught and counted" 1 st.Dispatcher.handler_failures;
  (* Uninstall policy applied: the rogue handler never runs again. *)
  Dispatcher.raise_default e () 2;
  check int "evicted after the fault" 1
    (Dispatcher.stats e).Dispatcher.handler_failures

let test_rogue_packet_handler_does_not_kill_network () =
  (* A buggy monitoring extension on the UDP event must not take the
     stack down: later packets still reach their ports. *)
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let a = Host.create sim ~name:"a" ~addr:addr_a in
  let b = Host.create sim ~name:"b" ~addr:addr_b in
  ignore (Host.wire a b ~kind:Nic.Lance);
  ignore (must @@ Dispatcher.install (Udp.packet_arrived b.Host.udp)
            ~installer:"rogue" (fun _ -> failwith "boom"));
  let got = ref 0 in
  ignore (Udp.listen b.Host.udp ~port:9 ~installer:"svc" (fun _ -> incr got));
  ignore (Sched.spawn a.Host.sched ~name:"send" (fun () ->
    for _ = 1 to 3 do
      ignore (Udp.send a.Host.udp ~dst:addr_b ~port:9 (Bytes.create 16))
    done));
  Host.run_all [ a; b ];
  check int "all datagrams delivered" 3 !got;
  check int "one failure, then evicted" 1
    (Dispatcher.stats (Udp.packet_arrived b.Host.udp)).Dispatcher.handler_failures

let test_bounded_udp_handler_aborted () =
  (* The default implementation module may constrain a handler to run
     in bounded time (paper, section 3.2): a runaway endpoint is
     aborted by the dispatcher; the stack and other endpoints are
     unharmed. *)
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let a = Host.create sim ~name:"a" ~addr:addr_a in
  let b = Host.create sim ~name:"b" ~addr:addr_b in
  ignore (Host.wire a b ~kind:Nic.Lance);
  let runaway_progress = ref 0 and healthy = ref 0 in
  let bounded_port_9 =
    { (Dispatcher.Handler_spec.guarded (fun d -> d.Udp.dst_port = 9)) with
      bound_cycles = Some 1_000 } in
  ignore (must @@ Dispatcher.install (Udp.packet_arrived b.Host.udp)
            ~installer:"runaway" ~spec:bounded_port_9
            (fun _ ->
              Clock.charge b.Host.machine.Machine.clock 50_000;
              incr runaway_progress));
  ignore (Udp.listen b.Host.udp ~port:10 ~installer:"healthy"
            (fun _ -> incr healthy));
  ignore (Sched.spawn a.Host.sched ~name:"send" (fun () ->
    ignore (Udp.send a.Host.udp ~dst:addr_b ~port:9 (Bytes.create 8));
    ignore (Udp.send a.Host.udp ~dst:addr_b ~port:10 (Bytes.create 8))));
  Host.run_all [ a; b ];
  check int "runaway body did execute" 1 !runaway_progress;
  check int "but was recorded as aborted" 1
    (Dispatcher.stats (Udp.packet_arrived b.Host.udp)).Dispatcher.aborted;
  check int "other endpoints fine" 1 !healthy

(* ------------------------------------------------------------------ *)
(* Contained faults, end to end                                       *)
(* ------------------------------------------------------------------ *)

let test_revoked_deref_contained () =
  (* A handler caches a capability whose owner epoch has advanced (as
     a hot swap does): the deref raises the typed Revoked fault, which
     the dispatcher contains like any handler bug — caught, counted
     and the stale handler evicted — while the raise completes. *)
  let clock = Clock.create Cost.alpha_133 in
  let d = Dispatcher.create clock in
  let ev = Dispatcher.declare d ~name:"Svc.Use" ~owner:"Svc"
      (fun (_ : int) -> ()) in
  let cap = Capability.mint ~owner:"OldGen" "resource" in
  ignore (Capability.advance_epoch ~owner:"OldGen");
  ignore (must @@ Dispatcher.install ev ~installer:"staleuser"
            (fun _ -> ignore (Capability.deref cap)));
  Dispatcher.raise_event ev 0;
  check int "revoked use counted as a handler failure" 1
    (Dispatcher.stats ev).Dispatcher.handler_failures;
  check int "stale handler evicted" 1 (Dispatcher.handler_count ev);
  Dispatcher.raise_event ev 1;
  check int "and never faults again" 1
    (Dispatcher.stats ev).Dispatcher.handler_failures

let test_hot_swap_unlinks_service () =
  (* End to end through the kernel: a faulting extension handler is
     evicted, but its domain stays linked; swapping the extension out
     withdraws the service it published from the nameserver and
     unlinks its domain from SpinPublic. *)
  let k = Kernel.boot ~mem_mb:8 () in
  let ev = Dispatcher.declare k.Kernel.dispatcher ~name:"Net.Filter"
      ~owner:"Net" (fun (_ : int) -> ()) in
  let filter ~version fn =
    let b =
      Object_file.Builder.create ~name:"Filter"
        ~safety:Object_file.Compiler_signed () in
    Object_file.Builder.set_version b version;
    Object_file.Builder.set_init b (fun () ->
      ignore (must @@ Dispatcher.install ev ~installer:"Filter" fn));
    Object_file.Builder.build b in
  let old =
    match Kernel.load_extension k (filter ~version:1 (fun _ -> failwith "filter bug")) with
    | Ok d -> d
    | Error e -> fail (Kdomain.error_to_string e) in
  Kernel.publish k ~name:"FilterService" old;
  let me = { Nameserver.who = "test" } in
  let resolvable () =
    Result.is_ok (Nameserver.lookup k.Kernel.nameserver ~name:"FilterService" me) in
  let linked () = List.mem "Filter" (Kdomain.members k.Kernel.public) in
  Dispatcher.raise_event ev 1;
  check int "the faulting handler was evicted" 1 (Dispatcher.handler_count ev);
  check bool "its service still resolves" true (resolvable ());
  check bool "its domain still linked into SpinPublic" true (linked ());
  let served = ref 0 in
  (match
     Kernel.hot_swap k ~domain:"Filter"
       ~replacement:(filter ~version:2 (fun _ -> incr served))
   with
   | Ok _ -> ()
   | Error e -> fail (Spin.Swap.error_to_string e));
  check bool "service withdrawn from the nameserver" false (resolvable ());
  check bool "domain unlinked from SpinPublic" false (linked ());
  Dispatcher.raise_event ev 2;
  check int "the replacement serves" 1 !served

let test_http_degrades_when_generator_evicted () =
  (* The consumer proving graceful degradation: an in-kernel HTTP
     server offers cache misses to dynamic content generators via the
     HTTP.GenContent event. A buggy CMS generator is evicted on its
     first fault; requests it used to crash on degrade to the static
     503 fallback, while a peer generator and plain static files keep
     serving. *)
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let server = Host.create sim ~name:"server" ~addr:addr_b in
  let client = Host.create sim ~name:"client" ~addr:addr_a in
  ignore (Host.wire client server ~kind:Nic.Lance);
  let disk = Machine.add_disk ~blocks:16384 server.Host.machine in
  let bc =
    Spin_fs.Block_cache.create ~phys:server.Host.phys server.Host.machine server.Host.sched disk in
  let http = ref None in
  ignore (Sched.spawn server.Host.sched ~name:"setup" (fun () ->
    let fs = Spin_fs.Simple_fs.format bc ~blocks:16384 () in
    Spin_fs.Simple_fs.create fs ~name:"index.html";
    Spin_fs.Simple_fs.write fs ~name:"index.html"
      (Bytes.of_string "<h1>static</h1>");
    let cache = Spin_fs.File_cache.create ~phys:server.Host.phys fs in
    let h = Http.create ~dispatcher:server.Host.dispatcher
        server.Host.machine server.Host.sched server.Host.tcp cache in
    Http.set_fallback h (Bytes.of_string "<h1>degraded</h1>");
    (match Http.content_event h with
     | Some ev ->
       ignore (must @@ Dispatcher.install ev ~installer:"cms"
                 (fun path ->
                    if path = "boom" then failwith "cms bug" else None));
       ignore (must @@ Dispatcher.install ev ~installer:"status-page"
                 (fun path ->
                    if path = "status" then
                      Some (Bytes.of_string "<h1>ok</h1>")
                    else None))
     | None -> failwith "no content event");
    http := Some h));
  Host.run_all [ client; server ];
  let get path =
    match Tcp.connect client.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> "no-connection"
    | Some conn ->
      Tcp.send client.Host.tcp conn
        (Bytes.of_string (Printf.sprintf "GET /%s HTTP/1.0\r\n\r\n" path));
      let response = Buffer.create 256 in
      let rec drain () =
        let data = Tcp.read client.Host.tcp conn in
        if Bytes.length data > 0 then begin
          Buffer.add_bytes response data;
          drain ()
        end in
      drain ();
      Buffer.contents response in
  let status path =
    let r = get path in
    if String.length r > 12 then String.sub r 9 3 else r in
  let log = ref [] in
  let failure = ref None in
  ignore (Sched.spawn client.Host.sched ~name:"client" (fun () ->
    try
      log := [
        ("static before", status "index.html");
        ("dynamic before", status "status");
        ("crash 1", status "boom");      (* the fault evicts cms *)
        ("crash 2", status "boom");
        ("dynamic after", status "status");
        ("degraded after", status "boom");
        ("static after", status "index.html");
      ]
    with e -> failure := Some e));
  Host.run_all [ client; server ];
  (match !failure with Some e -> raise e | None -> ());
  let expect label want =
    match List.assoc_opt label !log with
    | Some got -> check string label want got
    | None -> fail (label ^ " missing") in
  expect "static before" "200";
  expect "dynamic before" "200";
  expect "crash 1" "503";               (* fault contained, degraded *)
  expect "crash 2" "503";               (* cms gone; fallback serves *)
  expect "dynamic after" "200";         (* peer generator untouched *)
  expect "degraded after" "503";        (* cms gone; fallback serves *)
  expect "static after" "200";
  let h = Option.get !http in
  let st = Http.stats h in
  check int "three degraded responses" 3 st.Http.fallbacks;
  check int "two dynamic responses" 2 st.Http.dynamic;
  let ev = Option.get (Http.content_event h) in
  check int "one fault, caught by the dispatcher" 1
    (Dispatcher.stats ev).Dispatcher.handler_failures;
  check int "cms evicted, status-page still installed" 2
    (Dispatcher.handler_count ev)

let test_rx_overflow_observable () =
  (* The receive-ring overflow of test_rx_ring_overflow_drops, now
     surfaced through the driver: Netif.drops exposes the device
     counter and the driver's gauge reports it. *)
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let a = Machine.create_on sim ~name:"a" () in
  let b = Machine.create_on sim ~name:"b" () in
  let nic_a, nic_b = Machine.connect a b ~kind:Nic.Lance () in
  let disp = Dispatcher.create clock in
  let sched = Sched.create sim disp in
  (* Never started: the ring is never drained, as in a stalled host. *)
  let nb = Netif.create b sched disp nic_b ~name:"Ether" in
  for _ = 1 to 80 do
    ignore (Nic.transmit nic_a ~off:0 ~len:64 (Bytes.create 64))
  done;
  Sim.run sim;
  check int "drops surfaced at the driver" 16 (Netif.drops nb)

let () =
  Alcotest.run "spin_faults"
    [
      ( "wire",
        [
          test_case "udp loss is silent" `Quick test_udp_lossy_wire_drops_silently;
          test_case "tcp retransmits through loss" `Quick
            test_tcp_retransmits_through_loss;
          test_case "tcp gives up on a dead wire" `Quick
            test_tcp_gives_up_on_dead_wire;
          test_case "rx ring overflow" `Quick test_rx_ring_overflow_drops;
          test_case "rx overflow is observable" `Quick
            test_rx_overflow_observable;
        ] );
      ( "extensions",
        [
          test_case "handler exception isolated" `Quick
            test_handler_exception_isolated;
          test_case "primary exception propagates" `Quick
            test_primary_exception_propagates;
          test_case "sole extension fault contained on fast path" `Quick
            test_fast_path_sole_extension_fault_contained;
          test_case "rogue handler spares the stack" `Quick
            test_rogue_packet_handler_does_not_kill_network;
          test_case "bounded handler aborted" `Quick
            test_bounded_udp_handler_aborted;
          test_case "stale-epoch deref contained and counted" `Quick
            test_revoked_deref_contained;
          test_case "hot swap unlinks published services" `Quick
            test_hot_swap_unlinks_service;
          test_case "http degrades around an evicted generator" `Quick
            test_http_degrades_when_generator_evicted;
        ] );
    ]

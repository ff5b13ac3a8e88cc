(* spinsim: boot the reproduced SPIN kernel and drive scenarios.

     dune exec bin/spinsim.exe -- boot
     dune exec bin/spinsim.exe -- graph
     dune exec bin/spinsim.exe -- video --clients 8 --seconds 1.0
     dune exec bin/spinsim.exe -- ping --count 5 --atm *)

open Cmdliner
open Spin_net
module Kernel = Spin.Kernel
module Dispatcher = Spin_core.Dispatcher
module Machine = Spin_machine.Machine
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Nic = Spin_machine.Nic
module Sched = Spin_sched.Sched
module Kheap = Spin_kgc.Kheap

let addr_a = Ip.addr_of_quad 10 0 0 1
let addr_b = Ip.addr_of_quad 10 0 0 2

(* ------------------------------------------------------------------ *)

let boot_cmd () =
  let k = Kernel.boot ~name:"spinsim" () in
  Printf.printf "SPIN (reproduction) booted on a simulated %d MHz Alpha\n"
    (Cost.alpha_133.Cost.cycles_per_us);
  Printf.printf "  physical memory : %d MB (%d frames)\n"
    (Spin_machine.Phys_mem.bytes_total k.Kernel.machine.Machine.mem
     / 1024 / 1024)
    (Spin_machine.Phys_mem.frames k.Kernel.machine.Machine.mem);
  Printf.printf "  dispatcher      : fast-path call %.2f us\n"
    (let e = Dispatcher.declare k.Kernel.dispatcher ~name:"Boot.Null"
         ~owner:"Boot" (fun () -> ()) in
     Kernel.stamp_us k (fun () -> Dispatcher.raise_event e ()));
  Kernel.register_syscall k ~number:0 (fun _ -> 0);
  Printf.printf "  system call     : %.2f us\n"
    (Kernel.stamp_us k (fun () -> ignore (Kernel.syscall k ~number:0 ~args:[||])));
  Printf.printf "  heap            : %d words live, collector %s\n"
    (Kheap.live_words k.Kernel.heap) "on";
  Printf.printf "  extensions      : %d loaded\n" (Kernel.extension_count k);
  `Ok ()

let graph_cmd () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let host = Host.create sim ~name:"graph" ~addr:addr_a in
  let peer = Host.create sim ~name:"peer" ~addr:addr_b in
  ignore (Host.wire host peer ~kind:Nic.Lance);
  ignore (Host.wire host peer ~kind:Nic.Fore_atm);
  ignore (Forward.create host.Host.ip ~proto:Ip.proto_udp ~port:9000 ~to_:addr_b);
  print_string (Proto_graph.render host.Host.dispatcher);
  `Ok ()

let ping_cmd count atm =
  let kind = if atm then Nic.Fore_atm else Nic.Lance in
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let a = Host.create sim ~name:"a" ~addr:addr_a in
  let b = Host.create sim ~name:"b" ~addr:addr_b in
  ignore (Host.wire a b ~kind);
  let done_ = ref 0 in
  ignore (Sched.spawn a.Host.sched ~name:"ping" (fun () ->
    for seq = 1 to count do
      let t0 = Clock.now_us clock in
      let received = ref false in
      ignore (Icmp.ping a.Host.icmp ~dst:addr_b ~seq (fun () ->
        received := true;
        incr done_;
        Printf.printf "16 bytes from %s: seq=%d time=%.0f us\n"
          (Ip.addr_to_string addr_b) seq (Clock.now_us clock -. t0)));
      while not !received do Sched.sleep_us a.Host.sched 100. done
    done));
  Host.run_all [ a; b ];
  Printf.printf "%d/%d echoes over %s\n" !done_ count (Nic.kind_name kind);
  `Ok ()

let video_cmd clients seconds =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let server = Host.create sim ~name:"server" ~addr:addr_a in
  let sink = Host.create sim ~name:"sink" ~addr:addr_b in
  let nic, _ = Host.wire server sink ~kind:Nic.T3 in
  let disk = Machine.add_disk ~blocks:65536 server.Host.machine in
  let bc = Spin_fs.Block_cache.create ~phys:server.Host.phys server.Host.machine server.Host.sched disk in
  let v = ref None in
  ignore (Sched.spawn server.Host.sched ~name:"setup" (fun () ->
    let fs = Spin_fs.Simple_fs.format bc ~blocks:65536 () in
    let s = Video.create_server server ~fs ~netif:nic ~port:5004 in
    Video.load_frames s ~count:15 ~frame_bytes:12_500;
    v := Some s));
  Host.run_all [ server; sink ];
  let s = Option.get !v in
  let client = Video.create_client sink ~port:5004 in
  for _ = 1 to clients do Video.add_client s addr_b done;
  ignore (Sched.spawn server.Host.sched ~name:"warm" (fun () ->
    Video.stream s ~fps:30 ~duration_s:0.5));
  Host.run_all [ server; sink ];
  let busy0 = Video.server_busy_cycles s in
  let t0 = Clock.now clock in
  ignore (Sched.spawn server.Host.sched ~name:"stream" (fun () ->
    Video.stream s ~fps:30 ~duration_s:seconds));
  Host.run_all [ server; sink ];
  let busy = Video.server_busy_cycles s - busy0 in
  let elapsed = Clock.now clock - t0 in
  Printf.printf "%d client streams for %.1fs: %d packets, %d frames displayed\n"
    clients seconds (Video.packets_sent s) (Video.frames_displayed client);
  Printf.printf "server CPU utilization: %.1f%%\n"
    (100. *. float_of_int busy /. float_of_int elapsed);
  `Ok ()

(* ------------------------------------------------------------------ *)

let boot_t = Term.(ret (const boot_cmd $ const ()))
let graph_t = Term.(ret (const graph_cmd $ const ()))

let count_arg =
  Arg.(value & opt int 4 & info [ "count"; "c" ] ~doc:"Number of echo probes.")

let atm_arg =
  Arg.(value & flag & info [ "atm" ] ~doc:"Use the FORE ATM interface.")

let ping_t = Term.(ret (const ping_cmd $ count_arg $ atm_arg))

let clients_arg =
  Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Client stream count.")

let seconds_arg =
  Arg.(value & opt float 1.0 & info [ "seconds" ] ~doc:"Streaming duration.")

let video_t = Term.(ret (const video_cmd $ clients_arg $ seconds_arg))

let cmds = [
  Cmd.v (Cmd.info "boot" ~doc:"Boot the kernel and report core costs") boot_t;
  Cmd.v (Cmd.info "graph" ~doc:"Print the live protocol graph (Figure 5)") graph_t;
  Cmd.v (Cmd.info "ping" ~doc:"ICMP echo between two simulated hosts") ping_t;
  Cmd.v (Cmd.info "video" ~doc:"Run the video server scenario (Figure 6)") video_t;
]

let () =
  let info = Cmd.info "spinsim" ~version:"0.4"
      ~doc:"Drive the SPIN operating system reproduction" in
  exit (Cmd.eval (Cmd.group info cmds))

(* Tables 5 and 6, Figure 5: networking.

   Both systems run the very same wire, NICs, drivers and protocol
   stack; the OSF/1 rows differ only in structure — their application
   endpoints live at user level and pay the boundary costs of
   [Bl_path] on every packet. *)

open Spin_net
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Nic = Spin_machine.Nic
module Sched = Spin_sched.Sched
module Bl_path = Spin_baseline.Bl_path
module Os_costs = Spin_baseline.Os_costs
module Machine = Spin_machine.Machine
module Dispatcher = Spin_core.Dispatcher

let addr_a = Ip.addr_of_quad 10 0 0 1
let addr_b = Ip.addr_of_quad 10 0 0 2
let addr_c = Ip.addr_of_quad 10 0 0 3

type sys = Spin_sys | Osf_sys

let sys_name = function Spin_sys -> "SPIN" | Osf_sys -> "DEC OSF/1"

let fresh_pair ?(optimized = false) kind =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let a = Host.create ~cpus:1 sim ~name:"a" ~addr:addr_a in
  let b = Host.create ~cpus:1 sim ~name:"b" ~addr:addr_b in
  ignore (Host.wire ~optimized a b ~kind);
  (clock, a, b)

(* ------------------------------------------------------------------ *)
(* Table 5: latency                                                   *)
(* ------------------------------------------------------------------ *)

(* [probes] 16-byte UDP echoes between two hosts, one at a time: the
   mean RTT of all but the first, which warms the engine's pools, and
   the host's minor words per echo after the first. Each of [watchers]
   is the guard of one more handler on the server's UDP arrival event
   (section 5.5's dispatcher scalability). *)
let udp_echo ?optimized ?(watchers = []) ~probes sys kind =
  let clock, a, b = fresh_pair ?optimized kind in
  let osf = Os_costs.osf1 in
  let bclock = b.Host.machine.Machine.clock in
  List.iter
    (fun guard ->
       ignore
         (Dispatcher.ok_exn ~site:"b_net"
            (Dispatcher.install (Udp.packet_arrived b.Host.udp)
               ~installer:"watcher"
               ~spec:(Dispatcher.Handler_spec.guarded guard) ignore)))
    watchers;
  (* Echo server on b. *)
  ignore (Udp.listen b.Host.udp ~port:7 ~installer:"echo" (fun d ->
    (match sys with
     | Spin_sys -> ()
     | Osf_sys ->
       Bl_path.user_recv_overhead bclock osf ~bytes:(Pkt.length d.Udp.payload);
       Bl_path.user_send_overhead bclock osf ~bytes:(Pkt.length d.Udp.payload));
    (* Echo in place: response headers go into the request's headroom. *)
    ignore (Udp.send_pkt b.Host.udp ~src_port:7 ~dst:d.Udp.src
              ~port:d.Udp.src_port d.Udp.payload)));
  let rtts = ref [] in
  let t0 = ref 0. in
  let pending = ref 0 in
  ignore (Udp.listen a.Host.udp ~port:7070 ~installer:"probe" (fun d ->
    (match sys with
     | Spin_sys -> ()
     | Osf_sys ->
       Bl_path.user_recv_overhead clock osf ~bytes:(Pkt.length d.Udp.payload));
    rtts := (Clock.now_us clock -. !t0) :: !rtts;
    decr pending));
  let marks = Array.make 2 0. in
  ignore (Sched.spawn a.Host.sched ~name:"probe" (fun () ->
    for i = 1 to probes do
      if i = 2 then marks.(0) <- Gc.minor_words ();
      t0 := Clock.now_us clock;
      incr pending;
      (match sys with
       | Spin_sys -> ()
       | Osf_sys -> Bl_path.user_send_overhead clock osf ~bytes:16);
      ignore (Udp.send a.Host.udp ~src_port:7070 ~dst:addr_b ~port:7
                (Bytes.create 16));
      (* Wait for this echo before the next probe. *)
      while !pending > 0 do Sched.sleep_us a.Host.sched 50. done
    done;
    marks.(1) <- Gc.minor_words ()));
  Host.run_all [ a; b ];
  let mean =
    match List.rev !rtts with
    | [] -> nan
    | _ :: warm -> Report.mean (if warm = [] then !rtts else warm) in
  (mean, (marks.(1) -. marks.(0)) /. float_of_int (probes - 1))

(* Table 5's latency: the mean RTT of five probes. *)
let udp_latency ?optimized ?watchers sys kind =
  fst (udp_echo ?optimized ?watchers ~probes:5 sys kind)

(* ------------------------------------------------------------------ *)
(* Table 5: bandwidth                                                 *)
(* ------------------------------------------------------------------ *)

(* Pure transmit cost: the peer NIC swallows frames without a driver,
   so no receive-side work pollutes the sender's stamp (in the
   co-simulation, interrupts run inside whatever code is executing). *)
let measure_tx sys ~kind ~payload_bytes =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let a = Host.create ~cpus:1 sim ~name:"tx" ~addr:addr_a in
  let b = Machine.create_on sim ~cpus:1 ~name:"mute" () in
  let nic_a, _nic_b = Machine.connect a.Host.machine b ~kind () in
  let na = Netif.create a.Host.machine a.Host.sched a.Host.dispatcher nic_a
      ~name:"probe" in
  Ip.add_interface a.Host.ip na ~addr:addr_a;
  Ip.add_route a.Host.ip ~dst:addr_b na;
  Netif.start na;
  let osf = Os_costs.osf1 in
  let out = ref 0. in
  ignore (Sched.spawn a.Host.sched ~name:"tx" (fun () ->
    let n = 12 in
    let us = Cost.cycles_to_us (Clock.cost clock)
        (Clock.stamp clock (fun () ->
           for _ = 1 to n do
             (match sys with
              | Spin_sys -> ()
              | Osf_sys -> Bl_path.user_send_overhead clock osf ~bytes:payload_bytes);
             ignore (Udp.send a.Host.udp ~src_port:1 ~dst:addr_b ~port:9
                       (Bytes.create payload_bytes))
           done)) in
    out := us /. float_of_int n));
  Sched.run a.Host.sched;
  !out

(* A reliable blast: the sender streams [window]-packet bursts and
   waits for the receiver's ack of each burst. *)
let udp_bandwidth sys kind ~payload_bytes ~bursts =
  let clock, a, b = fresh_pair kind in
  let osf = Os_costs.osf1 in
  let window = 8 in
  let received = ref 0 in
  let bclock = b.Host.machine.Machine.clock in
  let in_burst = ref 0 in
  ignore (Udp.listen b.Host.udp ~port:9 ~installer:"sink" (fun d ->
    (match sys with
     | Spin_sys -> ()
     | Osf_sys ->
       Bl_path.user_recv_overhead bclock osf ~bytes:(Pkt.length d.Udp.payload));
    received := !received + Pkt.length d.Udp.payload;
    incr in_burst;
    if !in_burst = window then begin
      in_burst := 0;
      (match sys with
       | Spin_sys -> ()
       | Osf_sys -> Bl_path.user_send_overhead bclock osf ~bytes:4);
      ignore (Udp.send b.Host.udp ~src_port:9 ~dst:d.Udp.src ~port:d.Udp.src_port
                (Bytes.create 4))
    end));
  let acked = ref 0 in
  ignore (Udp.listen a.Host.udp ~port:9091 ~installer:"acks" (fun _ -> incr acked));
  let t_start = ref 0. and t_end = ref 0. in
  ignore (Sched.spawn a.Host.sched ~name:"blast" (fun () ->
    t_start := Clock.now_us clock;
    for burst = 1 to bursts do
      for _ = 1 to window do
        (match sys with
         | Spin_sys -> ()
         | Osf_sys -> Bl_path.user_send_overhead clock osf ~bytes:payload_bytes);
        ignore (Udp.send a.Host.udp ~src_port:9091 ~dst:addr_b ~port:9
                  (Bytes.create payload_bytes))
      done;
      while !acked < burst do Sched.sleep_us a.Host.sched 100. done
    done;
    t_end := Clock.now_us clock));
  let idle0 = Clock.idle_cycles clock in
  Host.run_all [ a; b ];
  (* The co-simulation serializes sender and receiver on one virtual
     clock; real hosts overlap. Recover the pipeline bandwidth from
     measured per-stage busy time: the throughput of a pipeline is
     set by its slowest stage (sender CPU, receiver CPU, or wire). *)
  let cost = Clock.cost clock in
  let idle_us =
    Cost.cycles_to_us cost (Clock.idle_cycles clock - idle0) in
  let packets = bursts * window in
  let busy_us = (!t_end -. !t_start) -. idle_us in
  let tx_us = measure_tx sys ~kind ~payload_bytes in
  let rx_us = (busy_us /. float_of_int packets) -. tx_us in
  let wire_us =
    float_of_int ((payload_bytes + 90) * 8) /. Nic.link_mbps kind in
  let stage_us = max tx_us (max rx_us wire_us) in
  float_of_int (payload_bytes * 8) /. stage_us   (* Mb/s *)

let table5 () =
  Report.header "Table 5: UDP latency (us) and receive bandwidth (Mb/s)";
  Printf.printf "%-22s %-12s %10s %10s\n" "metric" "system" "paper" "measured";
  let row ?(qual = "") ?(unit_ = "us") metric sys paper measured =
    Printf.printf "%-22s %-12s %10.1f %10.1f\n" metric (sys_name sys)
      paper measured;
    Report.metric ~unit_
      ~name:(Printf.sprintf "%s %s%s" metric (sys_name sys) qual) measured;
    measured in
  (* The paper's claim for both links: SPIN's round trip is shorter. *)
  let latency link kind ~osf_paper ~spin_paper =
    let osf = row link Osf_sys osf_paper (udp_latency Osf_sys kind) in
    let spin = row link Spin_sys spin_paper (udp_latency Spin_sys kind) in
    Report.require ~name:(link ^ ": SPIN below OSF/1") (spin < osf) in
  latency "Ethernet latency" Nic.Lance ~osf_paper:789. ~spin_paper:565.;
  latency "ATM latency" Nic.Fore_atm ~osf_paper:631. ~spin_paper:421.;
  ignore
    (row ~unit_:"Mb/s" "Ethernet bandwidth" Osf_sys 8.9
       (udp_bandwidth Osf_sys Nic.Lance ~payload_bytes:1400 ~bursts:12));
  ignore
    (row ~unit_:"Mb/s" "Ethernet bandwidth" Spin_sys 8.9
       (udp_bandwidth Spin_sys Nic.Lance ~payload_bytes:1400 ~bursts:12));
  let atm_osf =
    row ~unit_:"Mb/s" "ATM bandwidth" Osf_sys 27.9
      (udp_bandwidth Osf_sys Nic.Fore_atm ~payload_bytes:8078 ~bursts:12) in
  let atm_spin =
    row ~unit_:"Mb/s" "ATM bandwidth" Spin_sys 33.
      (udp_bandwidth Spin_sys Nic.Fore_atm ~payload_bytes:8078 ~bursts:12) in
  Report.require ~name:"ATM bandwidth: SPIN above OSF/1" (atm_spin > atm_osf);
  (* The paper's footnote: with drivers optimized for latency, SPIN
     reaches 337 us on Ethernet and 241 us on ATM. *)
  Printf.printf "  (optimized drivers, SPIN only:)\n";
  ignore
    (row ~qual:" optimized" "Ethernet latency" Spin_sys 337.
       (udp_latency ~optimized:true Spin_sys Nic.Lance));
  ignore
    (row ~qual:" optimized" "ATM latency" Spin_sys 241.
       (udp_latency ~optimized:true Spin_sys Nic.Fore_atm))

(* ------------------------------------------------------------------ *)
(* Table 6: protocol forwarding                                       *)
(* ------------------------------------------------------------------ *)

let fresh_triple kind =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let client = Host.create ~cpus:1 sim ~name:"client" ~addr:addr_a in
  let fwd = Host.create ~cpus:1 sim ~name:"fwd" ~addr:addr_c in
  let server = Host.create ~cpus:1 sim ~name:"server" ~addr:addr_b in
  ignore (Host.wire client fwd ~kind);
  ignore (Host.wire fwd server ~kind);
  (clock, client, fwd, server)

let forward_udp_latency sys kind =
  let clock, client, fwd, server = fresh_triple kind in
  (match sys with
   | Spin_sys ->
     ignore (Forward.create fwd.Host.ip ~proto:Ip.proto_udp ~port:9000
               ~to_:addr_b)
   | Osf_sys ->
     (* The user-level splice: each packet crosses to user space and
        back on the forwarding host. *)
     let osf = Os_costs.osf1 in
     let fclock = fwd.Host.machine.Machine.clock in
     let flows : (int, Ip.addr * int) Hashtbl.t = Hashtbl.create 8 in
     ignore (Udp.listen fwd.Host.udp ~port:9000 ~installer:"splice" (fun d ->
       Bl_path.user_recv_overhead fclock osf ~bytes:(Pkt.length d.Udp.payload);
       Bl_path.user_send_overhead fclock osf ~bytes:(Pkt.length d.Udp.payload);
       let dst, port =
         if d.Udp.src = addr_b then
           match Hashtbl.find_opt flows d.Udp.src_port with
           | Some c -> c
           | None -> (addr_b, 9000)
         else begin
           Hashtbl.replace flows 9000 (d.Udp.src, d.Udp.src_port);
           (addr_b, 9000)
         end in
       ignore (Udp.send fwd.Host.udp ~src_port:9000 ~dst ~port
                 (Pkt.contents d.Udp.payload)))));
  ignore (Udp.listen server.Host.udp ~port:9000 ~installer:"echo" (fun d ->
    ignore (Udp.send_pkt server.Host.udp ~src_port:9000 ~dst:d.Udp.src
              ~port:d.Udp.src_port d.Udp.payload)));
  let rtts = ref [] and t0 = ref 0. and pending = ref 0 in
  ignore (Udp.listen client.Host.udp ~port:5555 ~installer:"probe" (fun _ ->
    rtts := (Clock.now_us clock -. !t0) :: !rtts;
    decr pending));
  ignore (Sched.spawn client.Host.sched ~name:"probe" (fun () ->
    for _ = 1 to 4 do
      t0 := Clock.now_us clock;
      incr pending;
      ignore (Udp.send client.Host.udp ~src_port:5555 ~dst:addr_c ~port:9000
                (Bytes.create 16));
      while !pending > 0 do Sched.sleep_us client.Host.sched 50. done
    done));
  Host.run_all [ client; fwd; server ];
  match !rtts with
  | [] -> nan
  | _ :: warm -> Report.mean (if warm = [] then !rtts else warm)

(* TCP through the forwarder: SPIN forwards packets below TCP (one
   end-to-end connection); the OSF splice terminates the client's
   connection at user level and opens a second one to the server. *)
let forward_tcp_latency sys kind =
  let clock, client, fwd, server = fresh_triple kind in
  Tcp.listen server.Host.tcp ~port:80 ~on_accept:(fun conn ->
    Tcp.on_receive conn (fun data -> Tcp.send server.Host.tcp conn data));
  (match sys with
   | Spin_sys ->
     ignore (Forward.create ~tcp:fwd.Host.tcp fwd.Host.ip ~proto:Ip.proto_tcp
               ~port:80 ~to_:addr_b)
   | Osf_sys ->
     let osf = Os_costs.osf1 in
     let fclock = fwd.Host.machine.Machine.clock in
     Tcp.listen fwd.Host.tcp ~port:80 ~on_accept:(fun upstream ->
       ignore (Sched.spawn fwd.Host.sched ~name:"splice" (fun () ->
         match Tcp.connect fwd.Host.tcp ~dst:addr_b ~dst_port:80 with
         | None -> ()
         | Some downstream ->
           Tcp.on_receive upstream (fun data ->
             Bl_path.user_recv_overhead fclock osf ~bytes:(Bytes.length data);
             Bl_path.user_send_overhead fclock osf ~bytes:(Bytes.length data);
             Tcp.send fwd.Host.tcp downstream data);
           Tcp.on_receive downstream (fun data ->
             Bl_path.user_recv_overhead fclock osf ~bytes:(Bytes.length data);
             Bl_path.user_send_overhead fclock osf ~bytes:(Bytes.length data);
             Tcp.send fwd.Host.tcp upstream data)))));
  let rtt = ref nan in
  ignore (Sched.spawn client.Host.sched ~name:"probe" (fun () ->
    match Tcp.connect client.Host.tcp ~dst:addr_c ~dst_port:80 with
    | None -> ()
    | Some conn ->
      (* One warm round trip, then four measured. *)
      Tcp.send client.Host.tcp conn (Bytes.create 16);
      ignore (Tcp.read client.Host.tcp conn);
      let samples = ref [] in
      for _ = 1 to 4 do
        let t0 = Clock.now_us clock in
        Tcp.send client.Host.tcp conn (Bytes.create 16);
        ignore (Tcp.read client.Host.tcp conn);
        samples := (Clock.now_us clock -. t0) :: !samples
      done;
      rtt := Report.mean !samples;
      Tcp.close client.Host.tcp conn;
      Sched.sleep_us client.Host.sched 10_000.));
  Host.run_all [ client; fwd; server ];
  !rtt

let table6 () =
  Report.header "Table 6: protocol forwarding, 16-byte round trip (us)";
  Printf.printf "%-26s %-12s %10s %10s\n" "path" "system" "paper" "measured";
  let row path sys paper v =
    Printf.printf "%-26s %-12s %10.0f %10.0f\n" path (sys_name sys) paper v;
    Report.metric ~name:(path ^ " " ^ sys_name sys) v;
    v in
  (* The paper's claim on every path: forwarding in the kernel beats
     the user-level splice. *)
  let path name run kind ~osf_paper ~spin_paper =
    let osf = row name Osf_sys osf_paper (run Osf_sys kind) in
    let spin = row name Spin_sys spin_paper (run Spin_sys kind) in
    Report.require ~name:(name ^ ": SPIN below OSF/1") (spin < osf) in
  path "TCP over Ethernet" forward_tcp_latency Nic.Lance
    ~osf_paper:2080. ~spin_paper:1420.;
  path "TCP over ATM" forward_tcp_latency Nic.Fore_atm
    ~osf_paper:1730. ~spin_paper:1067.;
  path "UDP over Ethernet" forward_udp_latency Nic.Lance
    ~osf_paper:1607. ~spin_paper:1344.;
  path "UDP over ATM" forward_udp_latency Nic.Fore_atm
    ~osf_paper:1389. ~spin_paper:1024.

(* ------------------------------------------------------------------ *)
(* Figure 5: the protocol graph                                       *)
(* ------------------------------------------------------------------ *)

let figure5 () =
  Report.header "Figure 5: protocol graph from live dispatcher registrations";
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let host = Host.create ~cpus:1 sim ~name:"graph" ~addr:addr_a in
  let peer = Host.create ~cpus:1 sim ~name:"peer" ~addr:addr_b in
  let nic, _ = Host.wire host peer ~kind:Nic.Lance in
  ignore (Host.wire host peer ~kind:Nic.Fore_atm);
  (* Populate the stack the way Figure 5 draws it. *)
  ignore (Forward.create host.Host.ip ~proto:Ip.proto_udp ~port:9000
            ~to_:addr_b);
  let disk = Machine.add_disk ~blocks:16384 host.Host.machine in
  let bc = Spin_fs.Block_cache.create ~phys:host.Host.phys host.Host.machine host.Host.sched disk in
  ignore (Sched.spawn host.Host.sched ~name:"setup" (fun () ->
    let fs = Spin_fs.Simple_fs.format bc ~blocks:16384 () in
    let cache = Spin_fs.File_cache.create ~phys:host.Host.phys fs in
    ignore (Http.create host.Host.machine host.Host.sched host.Host.tcp cache);
    ignore (Video.create_server host ~fs ~netif:nic ~port:5004)));
  Host.run_all [ host; peer ];
  ignore (Video.create_client peer ~port:5004);
  print_string (Proto_graph.render host.Host.dispatcher)

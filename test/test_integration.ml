(* Whole-system integration: one simulated network runs the paper's
   extensions side by side — in-kernel HTTP with the hybrid cache, the
   video multicast path and packet-level forwarding — under a mixed
   workload, with global invariants checked at the end. *)

open Alcotest
open Spin_net
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Nic = Spin_machine.Nic
module Machine = Spin_machine.Machine
module Sched = Spin_sched.Sched
module Dispatcher = Spin_core.Dispatcher

let must r = Dispatcher.ok_exn ~site:"test_integration" r

let addr_server = Ip.addr_of_quad 10 0 0 1
let addr_fwd = Ip.addr_of_quad 10 0 0 2
let addr_client = Ip.addr_of_quad 10 0 0 3

type world = {
  clock : Clock.t;
  server : Host.t;
  fwd : Host.t;
  client : Host.t;
  http : Http.t;
  video : Video.server;
  video_client : Video.client;
  forward : Forward.t;
  cache : Spin_fs.File_cache.t;
}

let build_world () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let server = Host.create sim ~name:"server" ~addr:addr_server in
  let fwd = Host.create sim ~name:"fwd" ~addr:addr_fwd in
  let client = Host.create sim ~name:"client" ~addr:addr_client in
  let server_nic, _ = Host.wire server fwd ~kind:Nic.Fore_atm in
  ignore (Host.wire fwd client ~kind:Nic.Fore_atm);
  (* The client reaches the web server through the middle host at the
     IP layer; video flows server->fwd and is forwarded in the stack. *)
  let via_server, _ = (server_nic, ()) in
  Ip.add_route client.Host.ip ~dst:addr_server
    (match Host.wire client server ~kind:Nic.Lance with n, _ -> n);
  ignore via_server;
  (* Server-side storage and services. *)
  let disk = Machine.add_disk ~blocks:65536 server.Host.machine in
  let bc = Spin_fs.Block_cache.create ~phys:server.Host.phys server.Host.machine server.Host.sched disk in
  let out = ref None in
  ignore (Sched.spawn server.Host.sched ~name:"setup" (fun () ->
    let fs = Spin_fs.Simple_fs.format bc ~blocks:65536 () in
    Spin_fs.Simple_fs.create fs ~name:"index.html";
    Spin_fs.Simple_fs.write fs ~name:"index.html"
      (Bytes.of_string (String.make 1500 'w'));
    let cache = Spin_fs.File_cache.create ~phys:server.Host.phys fs in
    let http = Http.create server.Host.machine server.Host.sched server.Host.tcp cache in
    let video = Video.create_server server ~fs ~netif:server_nic ~port:5004 in
    Video.load_frames video ~count:5 ~frame_bytes:6_000;
    out := Some (http, video, cache)));
  Host.run_all [ server; fwd; client ];
  let http, video, cache = Option.get !out in
  (* The forwarder host redirects video packets onward to the client. *)
  let forward = Forward.create fwd.Host.ip ~proto:Ip.proto_udp ~port:5004
      ~to_:addr_client in
  let video_client = Video.create_client client ~port:5004 in
  Video.add_client video addr_fwd;
  { clock; server; fwd; client; http; video; video_client; forward;
    cache }

let http_get w path =
  match Tcp.connect w.client.Host.tcp ~dst:addr_server ~dst_port:80 with
  | None -> None
  | Some conn ->
    Tcp.send w.client.Host.tcp conn
      (Bytes.of_string (Printf.sprintf "GET /%s HTTP/1.0\r\n\r\n" path));
    let buf = Buffer.create 512 in
    let rec drain () =
      let data = Tcp.read w.client.Host.tcp conn in
      if Bytes.length data > 0 then begin
        Buffer.add_bytes buf data;
        drain ()
      end in
    drain ();
    Some (Buffer.contents buf)

let test_mixed_workload () =
  let w = build_world () in
  let hosts = [ w.server; w.fwd; w.client ] in
  let responses = ref 0 in
  (* Web traffic from the client... *)
  ignore (Sched.spawn w.client.Host.sched ~name:"web-client" (fun () ->
    for _ = 1 to 4 do
      (match http_get w "index.html" with
       | Some r when String.length r > 1500 -> incr responses
       | Some _ | None -> ());
      Sched.sleep_us w.client.Host.sched 10_000.
    done));
  (* ...while the video server streams through the forwarder. *)
  ignore (Sched.spawn w.server.Host.sched ~name:"video" (fun () ->
    Video.stream w.video ~fps:30 ~duration_s:0.4));
  Host.run_all hosts;

  (* Everyone made progress. *)
  check int "all web responses served" 4 !responses;
  check int "http stats agree" 4 (Http.stats w.http).Http.ok;
  check bool "video frames crossed two links" true
    (Video.frames_displayed w.video_client > 0);
  check bool "forwarder carried the stream" true
    (Forward.packets_forwarded w.forward
     >= Video.frames_displayed w.video_client);

  (* Observability agrees with the data path. *)
  let raises ev = (Dispatcher.stats ev).Dispatcher.raises in
  let udp_seen = raises (Udp.packet_arrived w.server.Host.udp) in
  let ip_seen = raises (Ip.packet_arrived w.server.Host.ip) in
  (* At least a SYN and a request segment per web request. *)
  check bool "the dispatcher saw the web segments" true (ip_seen >= 8);
  check bool "ip raises dominate udp raises" true (ip_seen >= udp_seen);

  (* Nothing died, nothing leaked visibly. *)
  List.iter
    (fun h ->
      let st = Sched.stats h.Host.sched in
      check int (h.Host.machine.Machine.name ^ ": no strand failures") 0
        st.Spin_sched.Sched.failed)
    hosts;
  check int "no handler failures on the shared events" 0
    ((Dispatcher.stats (Udp.packet_arrived w.server.Host.udp))
       .Dispatcher.handler_failures);
  (* The object cache held the small page and served hits. *)
  let cs = Spin_fs.File_cache.stats w.cache in
  check bool "cache hits accrued" true (cs.Spin_fs.Cache_stats.hits >= 3);
  (* Time moved: this all took simulated milliseconds, not zero. *)
  check bool "virtual time advanced" true (Clock.now_us w.clock > 100_000.)

let test_world_survives_rogue_extension () =
  let w = build_world () in
  let hosts = [ w.server; w.fwd; w.client ] in
  (* A rogue extension watches every IP packet on the server and
     crashes on the third one. *)
  let seen = ref 0 in
  ignore (must @@ Dispatcher.install (Ip.packet_arrived w.server.Host.ip)
            ~installer:"rogue" (fun _ ->
              incr seen;
              if !seen = 3 then failwith "rogue dies"));
  let responses = ref 0 in
  ignore (Sched.spawn w.client.Host.sched ~name:"web" (fun () ->
    for _ = 1 to 3 do
      (match http_get w "index.html" with
       | Some _ -> incr responses
       | None -> ())
    done));
  Host.run_all hosts;
  check int "service uninterrupted" 3 !responses;
  check int "rogue failure recorded once" 1
    (Dispatcher.stats (Ip.packet_arrived w.server.Host.ip))
      .Dispatcher.handler_failures

let () =
  Alcotest.run "spin_integration"
    [
      ( "world",
        [
          test_case "mixed workload" `Quick test_mixed_workload;
          test_case "rogue extension isolated" `Quick
            test_world_survives_rogue_extension;
        ] );
    ]

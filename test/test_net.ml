(* Tests for the network stack: packet buffers, device glue, IP
   routing and forwarding, ICMP, UDP, TCP, Active Messages, the
   Forward extension, in-kernel HTTP, and the protocol graph. *)

open Alcotest
open Spin_net
module Machine = Spin_machine.Machine
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Nic = Spin_machine.Nic
module Dispatcher = Spin_core.Dispatcher
module Sched = Spin_sched.Sched
module Trace = Spin_machine.Trace

let addr_a = Ip.addr_of_quad 10 0 0 1
let addr_b = Ip.addr_of_quad 10 0 0 2
let addr_c = Ip.addr_of_quad 10 0 0 3

let two_hosts ?(kind = Nic.Lance) () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let a = Host.create sim ~name:"a" ~addr:addr_a in
  let b = Host.create sim ~name:"b" ~addr:addr_b in
  ignore (Host.wire a b ~kind);
  (sim, a, b)

(* Run a body in a strand on a host, co-simulating all hosts. *)
let in_strand hosts host body =
  let failure = ref None in
  ignore (Sched.spawn host.Host.sched ~name:"test-body" (fun () ->
    try body () with e -> failure := Some e));
  Host.run_all hosts;
  match !failure with Some e -> raise e | None -> ()

(* ------------------------------------------------------------------ *)
(* Pkt                                                                *)
(* ------------------------------------------------------------------ *)

let pkt s = Pkt.of_payload (Bytes.of_string s)

(* A header push: reserve it in the headroom and write it in place. *)
let push p h =
  let n = String.length h in
  let off = Pkt.reserve p n in
  Bytes.blit_string h 0 (Pkt.buffer p) off n

let test_pkt_push_pull () =
  let p = pkt "payload" in
  push p "HDR:";
  check int "grown" 11 (Pkt.length p);
  check string "header in front" "HDR:"
    (Pkt.to_string (Pkt.sub p ~pos:0 ~len:4));
  Pkt.drop p 4;
  check string "payload intact" "payload" (Pkt.to_string p);
  check_raises "short drop" (Invalid_argument "Pkt.drop: short packet")
    (fun () -> Pkt.drop p 100)

let test_pkt_push_uses_headroom () =
  (* Transmit-side shape: headers land in reserved headroom without
     moving the payload or reallocating the backing buffer. *)
  let p = Pkt.of_payload (Bytes.of_string "data") in
  let backing_before, _, _ = Pkt.view p in
  push p "udp.....";
  push p "ip...";
  let backing_after, off, len = Pkt.view p in
  check bool "no realloc while headroom lasts" true
    (backing_before == backing_after);
  check int "headroom consumed" (Pkt.default_headroom - 13) (Pkt.headroom p);
  check int "offset tracks pushes" (Pkt.default_headroom - 13) off;
  check int "window covers headers + payload" 17 len;
  check string "wire image" "ip...udp.....data" (Pkt.to_string p)

let test_pkt_drop_is_zero_copy () =
  (* Receive-side shape: consuming a header advances the view over the
     same backing buffer, and the dropped header stays reusable as
     headroom for a response. *)
  let frame = Bytes.of_string "HDRpayload" in
  let p = Pkt.of_frame frame in
  Pkt.drop p 3;
  let backing, off, _ = Pkt.view p in
  check bool "still the NIC's buffer" true (backing == frame);
  check int "view advanced" 3 off;
  check int "dropped header became headroom" 3 (Pkt.headroom p);
  check string "payload" "payload" (Pkt.to_string p);
  push p "RSP";
  check string "echo reuses the consumed header's bytes" "RSPpayload"
    (Pkt.to_string p)

let test_pkt_sub_aliases () =
  let p = pkt "abcdef" in
  let v = Pkt.sub p ~pos:2 ~len:3 in
  check string "sub view" "cde" (Pkt.to_string v);
  Pkt.set_u8 v 0 (Char.code 'X');
  check string "write through the view is visible" "abXdef" (Pkt.to_string p)

let test_pkt_headroom_exhaustion_reallocs () =
  let p = Pkt.of_payload (Bytes.of_string "tail") in
  (* Leave 2 bytes of headroom, then push past them. *)
  let filler = String.make (Pkt.default_headroom - 2) '.' in
  push p filler;
  push p "a-very-long-header:";
  check string "push survived exhaustion" ("a-very-long-header:" ^ filler ^ "tail")
    (Pkt.to_string p);
  check bool "fresh headroom after the realloc" true (Pkt.headroom p > 0)

(* ------------------------------------------------------------------ *)
(* Addresses                                                          *)
(* ------------------------------------------------------------------ *)

let test_addr_format () =
  check string "dotted quad" "10.0.0.1" (Ip.addr_to_string addr_a);
  check int "roundtrip" addr_a
    (Ip.addr_of_quad 10 0 0 1)

(* ------------------------------------------------------------------ *)
(* ICMP / basic delivery                                              *)
(* ------------------------------------------------------------------ *)

let test_ping_round_trip () =
  let _, a, b = two_hosts () in
  let replies = ref 0 in
  in_strand [ a; b ] a (fun () ->
    check bool "sent" true
      (Icmp.ping a.Host.icmp ~dst:addr_b ~seq:1 (fun () -> incr replies)));
  check int "exactly one reply arrived" 1 !replies

let test_ping_rtt_magnitude () =
  (* SPIN's small-packet Ethernet RTT is in the hundreds of us. *)
  let sim, a, b = two_hosts () in
  let done_at = ref 0. in
  in_strand [ a; b ] a (fun () ->
    ignore (Icmp.ping a.Host.icmp ~dst:addr_b ~seq:7 (fun () ->
      done_at := Clock.now_us (Sim.clock sim))));
  check bool "RTT hundreds of microseconds" true
    (!done_at > 100. && !done_at < 2_000.)

(* ------------------------------------------------------------------ *)
(* UDP                                                                *)
(* ------------------------------------------------------------------ *)

let test_udp_delivery_by_port () =
  let _, a, b = two_hosts () in
  let port9 = ref [] and port5 = ref [] in
  ignore (Udp.listen b.Host.udp ~port:9 ~installer:"nine"
            (fun d -> port9 := Pkt.to_string d.Udp.payload :: !port9));
  ignore (Udp.listen b.Host.udp ~port:5 ~installer:"five"
            (fun d -> port5 := Pkt.to_string d.Udp.payload :: !port5));
  in_strand [ a; b ] a (fun () ->
    check bool "send 9" true
      (Udp.send a.Host.udp ~dst:addr_b ~port:9 (Bytes.of_string "to-nine"));
    check bool "send 5" true
      (Udp.send a.Host.udp ~dst:addr_b ~port:5 (Bytes.of_string "to-five"));
    check bool "send 77 vanishes quietly" true
      (Udp.send a.Host.udp ~dst:addr_b ~port:77 (Bytes.of_string "noone")));
  check (list string) "port 9" [ "to-nine" ] !port9;
  check (list string) "port 5" [ "to-five" ] !port5

let test_udp_echo_rtt () =
  let sim, a, b = two_hosts () in
  (* Echo server: a SPIN extension handling packets in the kernel. *)
  ignore (Udp.listen b.Host.udp ~port:7 ~installer:"echo" (fun d ->
    (* Zero-copy echo: response headers overwrite the request's. *)
    ignore (Udp.send_pkt b.Host.udp ~src_port:7 ~dst:d.Udp.src
              ~port:d.Udp.src_port d.Udp.payload)));
  let rtt = ref 0. in
  ignore (Udp.listen a.Host.udp ~port:7070 ~installer:"client" (fun _ ->
    rtt := Clock.now_us (Sim.clock sim)));
  in_strand [ a; b ] a (fun () ->
    ignore (Udp.send a.Host.udp ~src_port:7070 ~dst:addr_b ~port:7
              (Bytes.create 16)));
  check bool "echo came back" true (!rtt > 0.);
  (* Calibration target: paper Table 5 says 565 us. Keep a wide band
     here; the bench asserts the shape precisely. *)
  check bool "RTT in the SPIN ballpark" true (!rtt > 250. && !rtt < 1_200.)

let test_udp_mtu_respected () =
  let _, a, b = two_hosts () in
  in_strand [ a; b ] a (fun () ->
    check bool "1500-class mtu fits 1,400 bytes" true
      (Udp.send a.Host.udp ~dst:addr_b ~port:9 (Bytes.create 1_400));
    check bool "oversize refused" false
      (Udp.send a.Host.udp ~dst:addr_b ~port:9 (Bytes.create 1_500)))

let test_udp_loopback () =
  let _, a, b = two_hosts () in
  let got = ref None in
  ignore (Udp.listen a.Host.udp ~port:4 ~installer:"self"
            (fun d -> got := Some (Pkt.to_string d.Udp.payload)));
  in_strand [ a; b ] a (fun () ->
    ignore (Udp.send a.Host.udp ~dst:addr_a ~port:4 (Bytes.of_string "hi me")));
  check (option string) "local destinations loop back" (Some "hi me") !got

(* ------------------------------------------------------------------ *)
(* IP routing / forwarding                                            *)
(* ------------------------------------------------------------------ *)

let test_ip_forwarding_through_middle_host () =
  (* a -- m -- b at the IP layer: m forwards, ttl drops. *)
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let a = Host.create sim ~name:"a" ~addr:addr_a in
  let m = Host.create sim ~name:"m" ~addr:addr_c in
  let b = Host.create sim ~name:"b" ~addr:addr_b in
  let na, _ = Host.wire a m ~kind:Nic.Lance in
  let _, nb = Host.wire m b ~kind:Nic.Lance in
  (* a reaches b via m; b replies via m. *)
  Ip.add_route a.Host.ip ~dst:addr_b na;
  Ip.add_route b.Host.ip ~dst:addr_a nb;
  let got = ref None in
  ignore (Udp.listen b.Host.udp ~port:9 ~installer:"sink"
            (fun d -> got := Some d.Udp.src));
  in_strand [ a; m; b ] a (fun () ->
    ignore (Udp.send a.Host.udp ~dst:addr_b ~port:9 (Bytes.of_string "via m")));
  check bool "delivered across two links" true (!got = Some addr_a);
  check int "m forwarded it" 1 (Ip.stats m.Host.ip).Ip.forwarded

let test_ip_no_route_drops () =
  let _, a, b = two_hosts () in
  in_strand [ a; b ] a (fun () ->
    check bool "unroutable send fails" false
      (Udp.send a.Host.udp ~dst:(Ip.addr_of_quad 99 9 9 9) ~port:1
         (Bytes.of_string "lost")));
  check bool "drop counted" true ((Ip.stats a.Host.ip).Ip.dropped > 0)

(* A 4-byte frame with IP's ethertype passes IP's frame filter but is
   too short for the IP header. IP must drop it rather than fault: a
   faulting handler is evicted from the interface, and no datagram
   sent after it would arrive. *)
let test_ip_short_frame_dropped () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let a = Host.create sim ~name:"a" ~addr:addr_a in
  let b = Host.create sim ~name:"b" ~addr:addr_b in
  let na, nb = Host.wire a b ~kind:Nic.Lance in
  let got = ref 0 in
  ignore (Udp.listen b.Host.udp ~port:9 ~installer:"sink"
            (fun _ -> incr got));
  in_strand [ a; b ] a (fun () ->
    check bool "short frame sent" true
      (Netif.transmit na (pkt "\x00\x08\x11\x40"));
    for _ = 1 to 3 do
      ignore (Udp.send a.Host.udp ~dst:addr_b ~port:9 (Bytes.of_string "x"))
    done);
  check int "every datagram delivered" 3 !got;
  check int "short frame dropped" 1 (Ip.stats b.Host.ip).Ip.dropped;
  check int "IP's handler never faulted" 0
    (Dispatcher.stats (Netif.rx_event nb)).Dispatcher.handler_failures

(* ------------------------------------------------------------------ *)
(* TCP                                                                *)
(* ------------------------------------------------------------------ *)

let test_tcp_connect_and_transfer () =
  let _, a, b = two_hosts () in
  let server_got = Buffer.create 64 in
  Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun conn ->
    Tcp.on_receive conn (fun data ->
      Buffer.add_bytes server_got data;
      Tcp.send b.Host.tcp conn (Bytes.of_string "ack!")));
  let client_got = ref "" in
  in_strand [ a; b ] a (fun () ->
    match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> fail "connect failed"
    | Some conn ->
      check string "established" "ESTABLISHED"
        (Tcp.state_to_string (Tcp.state conn));
      Tcp.send a.Host.tcp conn (Bytes.of_string "hello tcp");
      client_got := Bytes.to_string (Tcp.read a.Host.tcp conn);
      Tcp.close a.Host.tcp conn);
  check string "server received" "hello tcp" (Buffer.contents server_got);
  check string "client received" "ack!" !client_got

let test_tcp_connect_refused () =
  let _, a, b = two_hosts () in
  in_strand [ a; b ] a (fun () ->
    (* No listener on 81: the RST aborts the handshake. *)
    check bool "refused" true
      (Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:81 = None));
  check bool "rst sent" true ((Tcp.stats b.Host.tcp).Tcp.resets > 0)

let test_tcp_large_transfer_segments () =
  let _, a, b = two_hosts () in
  let received = Buffer.create 16384 in
  Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun conn ->
    Tcp.on_receive conn (fun data -> Buffer.add_bytes received data));
  let payload = Bytes.init 10_000 (fun i -> Char.chr (i land 0xff)) in
  in_strand [ a; b ] a (fun () ->
    match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> fail "connect failed"
    | Some conn -> Tcp.send a.Host.tcp conn payload);
  check int "all bytes across" 10_000 (Buffer.length received);
  check bytes "in order and intact" payload (Buffer.to_bytes received);
  check bool "multiple segments" true
    ((Tcp.stats a.Host.tcp).Tcp.segments_sent > 9)

let test_tcp_teardown_states () =
  let _, a, b = two_hosts () in
  let server_conn = ref None in
  Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun conn ->
    server_conn := Some conn);
  in_strand [ a; b ] a (fun () ->
    match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> fail "connect failed"
    | Some conn ->
      Tcp.close a.Host.tcp conn;
      (* Let the FIN propagate. *)
      Sched.sleep_us a.Host.sched 5_000.;
      let sconn = Option.get !server_conn in
      check string "server saw the FIN" "CLOSE_WAIT"
        (Tcp.state_to_string (Tcp.state sconn));
      Tcp.close b.Host.tcp sconn;
      Sched.sleep_us a.Host.sched 5_000.;
      check string "client side closed" "CLOSED"
        (Tcp.state_to_string (Tcp.state conn));
      check string "server side closed" "CLOSED"
        (Tcp.state_to_string (Tcp.state sconn)))

(* TCP reads a segment in its frame, so it must check the frame first:
   a payload shorter than the header, or one whose data-length field
   runs past its end, is dropped before the TCP event is raised. A
   well-formed reset for no connection is raised, and ignored (so no
   host answers anything; the tracer counts both hosts' raises). *)
let test_tcp_malformed_segments_dropped () =
  let _, a, b = two_hosts () in
  let tr = Dispatcher.tracer b.Host.dispatcher in
  Trace.enable tr;
  let segment ~len ~data =
    let p = Bytes.make (Tcp.header_bytes + data) '\000' in
    Bytes.set_uint16_le p 0 40000;
    Bytes.set_uint16_le p 2 80;
    Bytes.set_uint8 p 12 8;                (* RST *)
    Bytes.set_uint16_le p 14 len;
    p in
  in_strand [ a; b ] a (fun () ->
    List.iter
      (fun payload ->
        check bool "sent" true
          (Ip.send a.Host.ip ~dst:addr_b ~proto:Ip.proto_tcp
             (Pkt.of_payload payload)))
      [ Bytes.create (Tcp.header_bytes - 1);
        segment ~len:21 ~data:20;
        segment ~len:20 ~data:20 ]);
  let raises =
    match Trace.summary tr ~key:"dispatcher.TCP.PacketArrived" with
    | Some s -> s.Trace.count
    | None -> 0 in
  check int "only the well-formed segment raised the event" 1 raises;
  let st = Tcp.stats b.Host.tcp in
  check int "only it reached TCP" 1 st.Tcp.segments_received;
  check int "and nothing answered it" 0 st.Tcp.segments_sent

(* Every handler of the IP event sees one payload. TCP reads its
   segment there and must leave it whole: a handler after TCP's (as
   Forward's guard is) still finds the ports at offset 0 and the data
   after the header. *)
let test_tcp_leaves_ip_payload_whole () =
  let _, a, b = two_hosts () in
  Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun conn ->
    Tcp.on_receive conn (fun _ -> ()));
  let seen = ref [] in
  ignore
    (Dispatcher.ok_exn ~site:"test"
       (Dispatcher.install (Ip.packet_arrived b.Host.ip) ~installer:"probe"
          ~spec:(Dispatcher.Handler_spec.guarded (fun p ->
            p.Ip.proto = Ip.proto_tcp))
          (fun p ->
            let b = p.Ip.payload in
            seen := (Pkt.get_u16_le b 2, Pkt.length b, Pkt.to_string b) :: !seen)));
  in_strand [ a; b ] a (fun () ->
    match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> fail "connect failed"
    | Some conn ->
      Tcp.send a.Host.tcp conn (Bytes.of_string "hello");
      Sched.sleep_us a.Host.sched 50_000.);
  match
    List.find_opt (fun (_, len, _) -> len = Tcp.header_bytes + 5) !seen
  with
  | None -> fail "the data segment never reached the probe"
  | Some (dport, _, bytes) ->
    check int "the ports still at offset 0" 80 dport;
    check string "the data still after the header" "hello"
      (String.sub bytes Tcp.header_bytes 5)

(* The connection table is searched with one reused key, and each
   connection keeps a key of its own. Many loopback connections share
   the table's buckets, and the first one's receive callback sends on
   the last, so that delivery's lookup runs inside the first's. Were a
   stored key the reused one, it would match every lookup in its
   bucket and misroute the data. *)
let test_tcp_lookup_inside_receive () =
  let _, a, b = two_hosts () in
  let n = 24 in
  let got = Array.make n "" in
  let clients = Array.make n None in
  let accepted = ref 0 in
  let client i = Option.get clients.(i) in
  Tcp.listen a.Host.tcp ~port:80 ~on_accept:(fun conn ->
    let i = !accepted in
    incr accepted;
    Tcp.on_receive conn (fun data ->
      got.(i) <- got.(i) ^ Bytes.to_string data;
      if i = 0 && got.(0) = "0" then
        Tcp.send a.Host.tcp (client (n - 1)) (Bytes.of_string "nested+")));
  in_strand [ a; b ] a (fun () ->
    for i = 0 to n - 1 do
      match Tcp.connect a.Host.tcp ~dst:addr_a ~dst_port:80 with
      | Some c -> clients.(i) <- Some c
      | None -> fail "loopback connect failed"
    done;
    for i = 0 to n - 1 do
      Tcp.send a.Host.tcp (client i) (Bytes.of_string (string_of_int i))
    done;
    Sched.sleep_us a.Host.sched 50_000.);
  check int "every connection accepted" n !accepted;
  Array.iteri
    (fun i s ->
      let want = if i = n - 1 then "nested+" ^ string_of_int i else string_of_int i in
      check string (Printf.sprintf "connection %d's data" i) want s)
    got

let test_tcp_retransmission_on_loss () =
  (* No frame is lost here: the transfer must complete well inside
     the first retransmit timeout, so however long the sender then
     waits, its timer never fires and nothing is resent. (Loss and
     Go-Back-N recovery are covered by the properties suite's lossy
     links and by test_faults.) *)
  let _, a, b = two_hosts () in
  let received = Buffer.create 64 in
  Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun conn ->
    Tcp.on_receive conn (fun data -> Buffer.add_bytes received data));
  in_strand [ a; b ] a (fun () ->
    match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> fail "connect failed"
    | Some conn ->
      Tcp.send a.Host.tcp conn (Bytes.of_string "data");
      (* Wait past several retransmit timeouts. *)
      Sched.sleep_us a.Host.sched 800_000.);
  check string "delivered" "data" (Buffer.contents received);
  check int "no spurious retransmits" 0 (Tcp.stats a.Host.tcp).Tcp.retransmits

(* ------------------------------------------------------------------ *)
(* Active messages                                                    *)
(* ------------------------------------------------------------------ *)

let test_active_messages () =
  let _, a, b = two_hosts () in
  let log = ref [] in
  let h = Active_msg.register b.Host.am (fun ~src payload ->
    log := (src, Bytes.to_string payload) :: !log) in
  in_strand [ a; b ] a (fun () ->
    check bool "sent" true
      (Active_msg.send a.Host.am ~dst:addr_b ~handler:h
         (Bytes.of_string "invoke!")));
  (match !log with
   | [ (src, msg) ] ->
     check int "sender address" addr_a src;
     check string "payload" "invoke!" msg
   | _ -> fail "handler did not run exactly once");
  check int "delivered stat" 1 (Active_msg.stats b.Host.am).Active_msg.delivered

let test_active_message_unknown_handler_dropped () =
  let _, a, b = two_hosts () in
  in_strand [ a; b ] a (fun () ->
    ignore (Active_msg.send a.Host.am ~dst:addr_b ~handler:999
              (Bytes.of_string "void")));
  check int "dropped" 1 (Active_msg.stats b.Host.am).Active_msg.dropped

let test_active_message_malformed_dropped () =
  (* Regression: a payload shorter than the 4-byte header, or one whose
     declared length runs past its end, was neither delivered nor
     counted. Both are dropped and counted now. *)
  let _, a, b = two_hosts () in
  let h = Active_msg.register b.Host.am (fun ~src:_ _ ->
    fail "a malformed message reached its handler") in
  let overlong = Bytes.create 8 in
  Bytes.set_uint16_le overlong 0 h;
  Bytes.set_uint16_le overlong 2 60;
  in_strand [ a; b ] a (fun () ->
    List.iter
      (fun payload ->
        check bool "sent" true
          (Ip.send a.Host.ip ~dst:addr_b ~proto:Active_msg.proto
             (Pkt.of_payload payload)))
      [ Bytes.create 2; overlong ]);
  let st = Active_msg.stats b.Host.am in
  check int "both dropped" 2 st.Active_msg.dropped;
  check int "none delivered" 0 st.Active_msg.delivered

(* ------------------------------------------------------------------ *)
(* Forward extension                                                  *)
(* ------------------------------------------------------------------ *)

let three_hosts () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let client = Host.create sim ~name:"client" ~addr:addr_a in
  let fwd = Host.create sim ~name:"fwd" ~addr:addr_c in
  let server = Host.create sim ~name:"server" ~addr:addr_b in
  ignore (Host.wire client fwd ~kind:Nic.Lance);
  ignore (Host.wire fwd server ~kind:Nic.Lance);
  (client, fwd, server)

let test_forward_udp () =
  let client, fwd, server = three_hosts () in
  let f = Forward.create fwd.Host.ip ~proto:Ip.proto_udp ~port:9000
      ~to_:addr_b in
  ignore (Udp.listen server.Host.udp ~port:9000 ~installer:"svc" (fun d ->
    ignore (Udp.send server.Host.udp ~src_port:9000 ~dst:d.Udp.src
              ~port:d.Udp.src_port (Bytes.of_string "pong"))));
  let reply = ref None in
  ignore (Udp.listen client.Host.udp ~port:5555 ~installer:"cl" (fun d ->
    reply := Some (Pkt.to_string d.Udp.payload, d.Udp.src)));
  in_strand [ client; fwd; server ] client (fun () ->
    ignore (Udp.send client.Host.udp ~src_port:5555 ~dst:addr_c ~port:9000
              (Bytes.of_string "ping")));
  (match !reply with
   | Some (msg, from) ->
     check string "reply body" "pong" msg;
     check int "reply appears to come from the forwarder" addr_c from
   | None -> fail "no reply through forwarder");
  check int "both directions forwarded" 2 (Forward.packets_forwarded f)

let test_forward_tcp_preserves_semantics () =
  (* Full TCP handshake and teardown through the packet-level
     forwarder: control packets flow end to end. *)
  let client, fwd, server = three_hosts () in
  let f = Forward.create ~tcp:fwd.Host.tcp fwd.Host.ip ~proto:Ip.proto_tcp
      ~port:80 ~to_:addr_b in
  let served = ref false in
  Tcp.listen server.Host.tcp ~port:80 ~on_accept:(fun conn ->
    Tcp.on_receive conn (fun _ ->
      served := true;
      Tcp.send server.Host.tcp conn (Bytes.of_string "forwarded reply")));
  let got = ref "" in
  in_strand [ client; fwd; server ] client (fun () ->
    match Tcp.connect client.Host.tcp ~dst:addr_c ~dst_port:80 with
    | None -> fail "handshake through forwarder failed"
    | Some conn ->
      Tcp.send client.Host.tcp conn (Bytes.of_string "req");
      got := Bytes.to_string (Tcp.read client.Host.tcp conn);
      Tcp.close client.Host.tcp conn;
      Sched.sleep_us client.Host.sched 10_000.);
  check bool "server served" true !served;
  check string "reply crossed back" "forwarded reply" !got;
  check bool "control packets forwarded too" true
    (Forward.packets_forwarded f >= 6)

(* ------------------------------------------------------------------ *)
(* HTTP                                                               *)
(* ------------------------------------------------------------------ *)

let http_fixture () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let server = Host.create sim ~name:"server" ~addr:addr_b in
  let client = Host.create sim ~name:"client" ~addr:addr_a in
  ignore (Host.wire client server ~kind:Nic.Lance);
  let disk = Machine.add_disk ~blocks:16384 server.Host.machine in
  let bc = Spin_fs.Block_cache.create ~phys:server.Host.phys server.Host.machine server.Host.sched disk in
  (sim, client, server, bc)

let http_get client server_addr path =
  match Tcp.connect client.Host.tcp ~dst:server_addr ~dst_port:80 with
  | None -> None
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
    Some (Buffer.contents response)

let test_http_serves_cached_file () =
  let _, client, server, bc = http_fixture () in
  let http = ref None in
  ignore (Sched.spawn server.Host.sched ~name:"setup" (fun () ->
    let fs = Spin_fs.Simple_fs.format bc ~blocks:16384 () in
    Spin_fs.Simple_fs.create fs ~name:"index.html";
    Spin_fs.Simple_fs.write fs ~name:"index.html"
      (Bytes.of_string "<h1>SPIN</h1>");
    let cache = Spin_fs.File_cache.create ~phys:server.Host.phys fs in
    http := Some (Http.create server.Host.machine server.Host.sched server.Host.tcp cache)));
  Host.run_all [ client; server ];
  let body = ref None in
  in_strand [ client; server ] client (fun () ->
    body := http_get client addr_b "index.html");
  (match !body with
   | Some response ->
     check bool "200" true
       (String.length response > 15 && String.sub response 9 6 = "200 OK");
     check bool "body present" true
       (String.length response >= 13
        && String.sub response (String.length response - 13) 13 = "<h1>SPIN</h1>")
   | None -> fail "no response");
  let st = Http.stats (Option.get !http) in
  check int "one request" 1 st.Http.requests;
  check int "one ok" 1 st.Http.ok

let test_http_404 () =
  let _, client, server, bc = http_fixture () in
  let http = ref None in
  ignore (Sched.spawn server.Host.sched ~name:"setup" (fun () ->
    let fs = Spin_fs.Simple_fs.format bc ~blocks:16384 () in
    let cache = Spin_fs.File_cache.create ~phys:server.Host.phys fs in
    http := Some (Http.create server.Host.machine server.Host.sched server.Host.tcp cache)));
  Host.run_all [ client; server ];
  let body = ref None in
  in_strand [ client; server ] client (fun () ->
    body := http_get client addr_b "missing.html");
  (match !body with
   | Some response ->
     check bool "404" true
       (String.length response > 15 && String.sub response 9 3 = "404")
   | None -> fail "no response");
  check int "counted" 1 (Http.stats (Option.get !http)).Http.not_found

let test_http_cache_hit_faster_than_miss () =
  let sim, client, server, bc = http_fixture () in
  ignore (Sched.spawn server.Host.sched ~name:"setup" (fun () ->
    let fs = Spin_fs.Simple_fs.format bc ~blocks:16384 () in
    Spin_fs.Simple_fs.create fs ~name:"obj";
    Spin_fs.Simple_fs.write fs ~name:"obj" (Bytes.create 8_000);
    let cache = Spin_fs.File_cache.create ~phys:server.Host.phys fs in
    ignore (Http.create server.Host.machine server.Host.sched server.Host.tcp cache)));
  Host.run_all [ client; server ];
  let first = ref 0. and second = ref 0. in
  in_strand [ client; server ] client (fun () ->
    let t0 = Clock.now_us (Sim.clock sim) in
    ignore (http_get client addr_b "obj");
    first := Clock.now_us (Sim.clock sim) -. t0;
    let t1 = Clock.now_us (Sim.clock sim) in
    ignore (http_get client addr_b "obj");
    second := Clock.now_us (Sim.clock sim) -. t1);
  check bool "miss pays the disk (ms)" true (!first > 5_000.);
  check bool "hit is much faster" true (!second < !first /. 2.)

(* ------------------------------------------------------------------ *)
(* Protocol graph                                                     *)
(* ------------------------------------------------------------------ *)

let test_proto_graph_reflects_stack () =
  let _, a, _b = two_hosts () in
  ignore (Udp.listen a.Host.udp ~port:80 ~installer:"HTTP" (fun _ -> ()));
  let events =
    List.map (fun (name, _, handlers) -> (name, handlers))
      (Dispatcher.topology a.Host.dispatcher) in
  let find name = List.assoc_opt name events in
  (match find "IP.PacketArrived" with
   | Some handlers ->
     List.iter (fun h -> check bool (h ^ " attached") true (List.mem h handlers))
       [ "ICMP"; "UDP"; "TCP"; "A.M." ]
   | None -> fail "IP event missing");
  (match find "UDP.PacketArrived" with
   | Some handlers -> check bool "HTTP listener" true (List.mem "HTTP" handlers)
   | None -> fail "UDP event missing");
  (match find "Ether.PktArrived" with
   | Some handlers -> check bool "IP on ether" true (List.mem "IP" handlers)
   | None -> fail "Ether event missing");
  let rendering = Proto_graph.render a.Host.dispatcher in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
    scan 0 in
  check bool "render mentions UDP" true (contains rendering "UDP")

let () =
  Alcotest.run "spin_net"
    [
      ( "pkt",
        [
          test_case "push/pull" `Quick test_pkt_push_pull;
          test_case "push writes into headroom" `Quick
            test_pkt_push_uses_headroom;
          test_case "drop is zero-copy" `Quick test_pkt_drop_is_zero_copy;
          test_case "sub aliases" `Quick test_pkt_sub_aliases;
          test_case "headroom exhaustion reallocs" `Quick
            test_pkt_headroom_exhaustion_reallocs;
        ] );
      ( "ip",
        [
          test_case "address format" `Quick test_addr_format;
          test_case "forwarding through a router" `Quick
            test_ip_forwarding_through_middle_host;
          test_case "no route drops" `Quick test_ip_no_route_drops;
          test_case "a short IP frame is dropped and IP keeps receiving" `Quick
            test_ip_short_frame_dropped;
        ] );
      ( "icmp",
        [
          test_case "ping round trip" `Quick test_ping_round_trip;
          test_case "RTT magnitude" `Quick test_ping_rtt_magnitude;
        ] );
      ( "udp",
        [
          test_case "per-port delivery via guards" `Quick test_udp_delivery_by_port;
          test_case "echo RTT" `Quick test_udp_echo_rtt;
          test_case "mtu respected" `Quick test_udp_mtu_respected;
          test_case "loopback" `Quick test_udp_loopback;
        ] );
      ( "tcp",
        [
          test_case "connect and transfer" `Quick test_tcp_connect_and_transfer;
          test_case "connection refused" `Quick test_tcp_connect_refused;
          test_case "large transfer" `Quick test_tcp_large_transfer_segments;
          test_case "teardown states" `Quick test_tcp_teardown_states;
          test_case "no spurious retransmits" `Quick test_tcp_retransmission_on_loss;
          test_case "malformed segments dropped before the raise" `Quick
            test_tcp_malformed_segments_dropped;
          test_case "the IP payload stays whole" `Quick
            test_tcp_leaves_ip_payload_whole;
          test_case "a lookup inside a receive callback" `Quick
            test_tcp_lookup_inside_receive;
        ] );
      ( "am_rpc",
        [
          test_case "active message invocation" `Quick test_active_messages;
          test_case "unknown handler dropped" `Quick
            test_active_message_unknown_handler_dropped;
          test_case "malformed messages dropped" `Quick
            test_active_message_malformed_dropped;
        ] );
      ( "forward",
        [
          test_case "udp forwarding" `Quick test_forward_udp;
          test_case "tcp end-to-end semantics" `Quick
            test_forward_tcp_preserves_semantics;
        ] );
      ( "http",
        [
          test_case "serves a cached file" `Quick test_http_serves_cached_file;
          test_case "404" `Quick test_http_404;
          test_case "cache hit beats miss" `Quick test_http_cache_hit_faster_than_miss;
        ] );
      ( "graph",
        [ test_case "reflects the live stack" `Quick test_proto_graph_reflects_stack ] );
    ]

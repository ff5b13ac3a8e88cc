(* Tests for the section 2 packet-filter foil: one UDP port filter
   program, interpreted by the checked bytecode interpreter or verified
   and compiled. *)

open Alcotest
open Spin_net
module Ebc = Spin_core.Ebc

(* ------------------------------------------------------------------ *)
(* Packet filters                                                     *)
(* ------------------------------------------------------------------ *)

(* The receive path's frame layout: the payload is the wire bytes. *)
let frame_layout : Pkt.t Ebc.layout =
  Ebc.layout ~name:"Test.PktArrived" ~payload:Pkt.ebc_payload ()

(* Both ways of running a filter: the verified, compiled form and the
   checked interpreter must agree before either answer counts. *)
let eval program pkt =
  let compiled =
    match Ebc.verify ~layout:frame_layout program with
    | Ok v -> Ebc.compile v
    | Error err -> failf "filter rejected: %s" (Ebc.error_to_string err) in
  let interpreted, _ = Ebc.run_counted ~layout:frame_layout program pkt in
  check bool "compiled agrees with interpreted" interpreted (compiled pkt);
  interpreted

let test_filter_basic_predicates () =
  let pkt = Pkt.of_payload (Bytes.of_string "\x08\x00\x11wxyz") in
  let proto_is v = Ebc.[ Ldb (0, 2); Ldi (1, v); Eq (2, 0, 1) ] in
  let prog body r = Array.of_list (body @ [ Ebc.Ret r ]) in
  check bool "byte equality" true (eval (prog (proto_is 0x11) 2) pkt);
  check bool "byte inequality" false (eval (prog (proto_is 6) 2) pkt);
  check bool "less-than" true
    (eval Ebc.[| Ldb (0, 2); Ldi (1, 255); Lt (2, 0, 1); Ret 2 |] pkt);
  check bool "negation" true
    (eval (prog (proto_is 6 @ [ Ebc.Not (2, 2) ]) 2) pkt);
  check bool "disjunction" true
    (eval
       (prog
          (proto_is 6 @ Ebc.[ Ldi (1, 0x11); Eq (3, 0, 1); Or (2, 2, 3) ])
          2)
       pkt)

let test_filter_short_packet_reads_zero () =
  check bool "past the end is zero" true
    (eval Ebc.[| Ldb (0, 500); Ldi (1, 0); Eq (2, 0, 1); Ret 2 |]
       (Pkt.of_payload (Bytes.create 4)))

let test_filter_validation () =
  let reject name program =
    match Ebc.verify ~layout:frame_layout program with
    | Ok _ -> fail (name ^ ": accepted")
    | Error _ -> () in
  reject "empty" [||];
  reject "bad offset" Ebc.[| Ldb (0, -1); Ldi (1, 0); Eq (2, 0, 1); Ret 2 |];
  match Ebc.verify ~layout:frame_layout (Udp.frame_port_prog ~port:53) with
  | Ok v ->
    check int "straight line: one step per instruction" 8
      (Ebc.certificate v).c_steps
  | Error err -> failf "port filter rejected: %s" (Ebc.error_to_string err)

let test_filter_matches_real_traffic () =
  (* The UDP-port filter agrees with the real stack's own
     demultiplexing on a captured frame, compiled and interpreted. *)
  let datagram = Udp.encode_datagram ~src_port:9 ~dst_port:53
      (Bytes.of_string "query") in
  let frame = Ip.encode_frame ~src:1 ~dst:2 ~proto:Ip.proto_udp datagram in
  check bool "matches port 53" true (eval (Udp.frame_port_prog ~port:53) frame);
  check bool "rejects port 80" false
    (eval (Udp.frame_port_prog ~port:80) frame);
  let tcp_frame = Ip.encode_frame ~src:1 ~dst:2 ~proto:Ip.proto_tcp datagram in
  check bool "rejects TCP" false
    (eval (Udp.frame_port_prog ~port:53) tcp_frame)

let test_filter_interpretation_costs () =
  (* Section 2: "interpretation overhead can limit performance" — the
     interpreted filter is an order of magnitude above a guard. *)
  let frame = Ip.encode_frame ~src:1 ~dst:2 ~proto:Ip.proto_udp
      (Udp.encode_datagram ~src_port:9 ~dst_port:53 Bytes.empty) in
  let program = Udp.frame_port_prog ~port:53 in
  let _, steps = Ebc.run_counted ~layout:frame_layout program frame in
  check int "every instruction executed once" (Array.length program) steps;
  let cost = Spin_machine.Cost.alpha_133 in
  let spent = steps * cost.Spin_machine.Cost.ebc_interp_step in
  check bool "costlier than a compiled guard" true
    (spent > cost.Spin_machine.Cost.guard_eval)

let () =
  Alcotest.run "spin_filters"
    [
      ( "pkt_filter",
        [
          test_case "predicates" `Quick test_filter_basic_predicates;
          test_case "short packets" `Quick test_filter_short_packet_reads_zero;
          test_case "validation" `Quick test_filter_validation;
          test_case "agrees with the real stack" `Quick
            test_filter_matches_real_traffic;
          test_case "interpretation overhead" `Quick
            test_filter_interpretation_costs;
        ] );
    ]

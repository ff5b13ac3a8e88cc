(* Tests for the interpreted packet filter (the section 2 foil) and
   the write-barrier extension (Appel & Li on the SPIN fault path). *)

open Alcotest
open Spin_net
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Addr = Spin_machine.Addr
module Kernel = Spin.Kernel
module Vm_ext = Spin_vm.Vm_ext
module Write_barrier = Spin_vm.Write_barrier

let clock () = Clock.create Cost.alpha_133

(* ------------------------------------------------------------------ *)
(* Pkt_filter                                                         *)
(* ------------------------------------------------------------------ *)

let test_filter_basic_predicates () =
  let c = clock () in
  let pkt = Bytes.of_string "\x08\x00\x11wxyz" in
  check bool "byte equality" true
    (Pkt_filter.run c [ Pkt_filter.Push_byte 2; Push_const 0x11; Eq ] pkt);
  check bool "byte inequality" false
    (Pkt_filter.run c [ Pkt_filter.Push_byte 2; Push_const 6; Eq ] pkt);
  check bool "less-than" true
    (Pkt_filter.run c [ Pkt_filter.Push_byte 2; Push_const 255; Lt ] pkt);
  check bool "negation" true
    (Pkt_filter.run c [ Pkt_filter.Push_byte 2; Push_const 6; Eq; Not ] pkt);
  check bool "disjunction" true
    (Pkt_filter.run c
       [ Pkt_filter.Push_byte 2; Push_const 6; Eq;
         Push_byte 2; Push_const 0x11; Eq; Or ] pkt)

let test_filter_short_packet_reads_zero () =
  let c = clock () in
  check bool "past the end is zero" true
    (Pkt_filter.run c [ Pkt_filter.Push_byte 500; Push_const 0; Eq ]
       (Bytes.create 4))

let test_filter_validation () =
  let reject name program =
    (try
       Pkt_filter.validate program;
       fail (name ^ ": accepted")
     with Pkt_filter.Bad_program _ -> ()) in
  reject "empty" [];
  reject "underflow" [ Pkt_filter.Eq ];
  reject "leftover operands" [ Pkt_filter.Push_const 1; Push_const 2 ];
  reject "bad offset" [ Pkt_filter.Push_byte (-1); Push_const 0; Eq ];
  Pkt_filter.validate (Pkt_filter.match_udp_port ~port:53)

let test_filter_matches_real_traffic () =
  (* The canned UDP-port filter agrees with the real stack's own
     demultiplexing on a captured frame. *)
  let c = clock () in
  let datagram = Udp.encode_datagram ~src_port:9 ~dst_port:53
      (Bytes.of_string "query") in
  let frame = Ip.encode_frame ~src:1 ~dst:2 ~proto:Ip.proto_udp datagram in
  check bool "matches port 53" true
    (Pkt_filter.run_view c (Pkt_filter.match_udp_port ~port:53) frame);
  check bool "rejects port 80" false
    (Pkt_filter.run_view c (Pkt_filter.match_udp_port ~port:80) frame);
  let tcp_frame = Ip.encode_frame ~src:1 ~dst:2 ~proto:Ip.proto_tcp datagram in
  check bool "rejects TCP" false
    (Pkt_filter.run_view c (Pkt_filter.match_udp_port ~port:53) tcp_frame)

let test_filter_interpretation_costs () =
  (* Section 2: "interpretation overhead can limit performance" — the
     interpreted filter is an order of magnitude above a guard. *)
  let c = clock () in
  let frame = Ip.encode_frame ~src:1 ~dst:2 ~proto:Ip.proto_udp
      (Udp.encode_datagram ~src_port:9 ~dst_port:53 Bytes.empty) in
  let program = Pkt_filter.match_udp_port ~port:53 in
  let spent = Clock.stamp c (fun () -> ignore (Pkt_filter.run_view c program frame)) in
  check int "per-instruction cost model"
    (List.length program * Pkt_filter.instruction_cost) spent;
  check bool "costlier than a compiled guard" true
    (spent > Spin_core.Dispatcher.costs.Spin_core.Dispatcher.guard_eval)

(* ------------------------------------------------------------------ *)
(* Write_barrier                                                      *)
(* ------------------------------------------------------------------ *)

let barrier_fixture () =
  let k = Kernel.boot ~mem_mb:8 () in
  let ext = Vm_ext.create k.Kernel.vm ~app:"gc" ~pages:8 in
  Vm_ext.activate ext;
  let wb = Write_barrier.create k.Kernel.vm ext in
  (k, ext, wb)

let test_barrier_logs_first_write () =
  let _, ext, wb = barrier_fixture () in
  Write_barrier.arm wb ~pages:[ 0; 1; 2; 3 ];
  Vm_ext.write ext ~page:2 1L;
  Vm_ext.write ext ~page:0 2L;
  Vm_ext.write ext ~page:2 3L;            (* already open: no fault *)
  check (list int) "dirty set in order" [ 2; 0 ] (Write_barrier.dirty_pages wb);
  check int "one fault per page" 2 (Write_barrier.faults_taken wb);
  check int64 "data intact" 3L (Vm_ext.read ext ~page:2)

let test_barrier_untracked_pages_free () =
  let _, ext, wb = barrier_fixture () in
  Write_barrier.arm wb ~pages:[ 0 ];
  Vm_ext.write ext ~page:5 9L;            (* not armed: no fault *)
  check (list int) "nothing logged" [] (Write_barrier.dirty_pages wb);
  check int "no faults" 0 (Write_barrier.faults_taken wb)

let test_barrier_rearm_cycle () =
  let _, ext, wb = barrier_fixture () in
  Write_barrier.arm wb ~pages:[ 0; 1 ];
  Vm_ext.write ext ~page:1 1L;
  check (list int) "cycle 1" [ 1 ] (Write_barrier.dirty_pages wb);
  Write_barrier.rearm wb;
  check (list int) "log cleared" [] (Write_barrier.dirty_pages wb);
  Vm_ext.write ext ~page:1 2L;            (* faults again after rearm *)
  check (list int) "cycle 2" [ 1 ] (Write_barrier.dirty_pages wb);
  check int "two faults for the page" 2 (Write_barrier.faults_taken wb)

let test_barrier_cost_is_spin_fault_path () =
  (* Each barrier hit costs one SPIN fault (~Table 4's Fault row),
     not a signal delivery. *)
  let k, ext, wb = barrier_fixture () in
  Write_barrier.arm wb ~pages:[ 0 ];
  let us = Kernel.stamp_us k (fun () -> Vm_ext.write ext ~page:0 1L) in
  check bool (Printf.sprintf "barrier hit ~29us (got %.1f)" us) true
    (us > 15. && us < 45.)

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
      ( "write_barrier",
        [
          test_case "logs first writes" `Quick test_barrier_logs_first_write;
          test_case "untracked pages free" `Quick test_barrier_untracked_pages_free;
          test_case "rearm cycle" `Quick test_barrier_rearm_cycle;
          test_case "costs one SPIN fault" `Quick test_barrier_cost_is_spin_fault_path;
        ] );
    ]

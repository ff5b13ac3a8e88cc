(* Tests for the DEC OSF/1 and Mach 3.0 baseline paths: the absolute
   calibration lives in the bench; here we check the structural
   relationships the paper's tables exhibit. Table 3's thread
   orderings are requires of the bench's one thread workload. *)

open Alcotest
open Spin_baseline

module Machine = Spin_machine.Machine
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost

(* Each model's paths on a fresh one-CPU machine. *)
let model os ~name =
  let m = Machine.create ~mem_mb:16 ~cpus:1 ~name () in
  (Bl_path.create os m, m.Machine.clock)

let osf () = model Os_costs.osf1 ~name:"osf1"
let mach () = model Os_costs.mach3 ~name:"mach"

let stamp_us clock f = Cost.cycles_to_us (Clock.cost clock) (Clock.stamp clock f)

let test_syscall_ordering () =
  (* Table 2: SPIN 4 < OSF 5 < Mach 7 us. *)
  let (_, oc) = osf () and (_, mc) = mach () in
  let osf_us = stamp_us oc (fun () -> Bl_path.null_syscall oc Os_costs.osf1) in
  let mach_us = stamp_us mc (fun () -> Bl_path.null_syscall mc Os_costs.mach3) in
  check bool (Printf.sprintf "OSF ~5us (got %.2f)" osf_us) true
    (osf_us > 4. && osf_us < 6.);
  check bool (Printf.sprintf "Mach ~7us (got %.2f)" mach_us) true
    (mach_us > 6. && mach_us < 8.)

let test_cross_as_call_ordering () =
  (* Table 2: SPIN 89 < Mach 104 << OSF 845 us. *)
  let (o, oc) = osf () and (m, mc) = mach () in
  let osf_us = stamp_us oc (fun () -> Bl_path.cross_address_space_call o) in
  let mach_us = stamp_us mc (fun () -> Bl_path.cross_address_space_call m) in
  check bool (Printf.sprintf "OSF in the 700-1000us band (got %.0f)" osf_us)
    true (osf_us > 700. && osf_us < 1000.);
  check bool (Printf.sprintf "Mach in the 90-120us band (got %.0f)" mach_us)
    true (mach_us > 90. && mach_us < 120.);
  check bool "order" true (mach_us < osf_us)

let test_vm_fault_ordering () =
  (* Table 4 Fault: SPIN 29 << Mach 415 > OSF 329. *)
  let (o, oc) = osf () and (m, mc) = mach () in
  let osf_us = stamp_us oc (fun () -> Bl_path.vm_fault o) in
  let mach_us = stamp_us mc (fun () -> Bl_path.vm_fault m) in
  check bool (Printf.sprintf "OSF fault ~329us (got %.0f)" osf_us) true
    (osf_us > 250. && osf_us < 420.);
  check bool (Printf.sprintf "Mach fault ~415us (got %.0f)" mach_us) true
    (mach_us > 330. && mach_us < 520.)

let test_vm_protect_scaling () =
  let (o, oc) = osf () in
  let one = stamp_us oc (fun () ->
    Bl_path.vm_protect o ~first:0 ~count:1 ~writable:false) in
  let hundred = stamp_us oc (fun () ->
    Bl_path.vm_protect o ~first:0 ~count:100 ~writable:true) in
  check bool (Printf.sprintf "Prot1 ~45us (got %.0f)" one) true
    (one > 30. && one < 65.);
  check bool "scales with pages" true (hundred > one *. 10.)

let test_mach_lazy_unprotect () =
  (* Table 4: Mach Unprot100 (302us) is much cheaper than Prot100
     (1792us) thanks to lazy evaluation. *)
  let (m, mc) = mach () in
  let prot = stamp_us mc (fun () ->
    Bl_path.vm_protect m ~first:0 ~count:100 ~writable:false) in
  let unprot = stamp_us mc (fun () ->
    Bl_path.vm_protect m ~first:0 ~count:100 ~writable:true) in
  check bool "lazy unprotect much cheaper" true (unprot < prot /. 3.)

let test_appel_compositions () =
  let (o, oc) = osf () in
  let appel1 = stamp_us oc (fun () -> Bl_path.vm_appel1 o) in
  let appel2 = stamp_us oc (fun () -> Bl_path.vm_appel2 o ~pages:100) /. 100. in
  (* Appel1 ~ Fault + Prot1 ~ 382 us; Appel2 ~ 351 us/page. *)
  check bool (Printf.sprintf "Appel1 ~382us (got %.0f)" appel1) true
    (appel1 > 280. && appel1 < 480.);
  check bool (Printf.sprintf "Appel2 ~351us/page (got %.0f)" appel2) true
    (appel2 > 250. && appel2 < 450.)

let test_net_overheads_positive () =
  let (_, oc) = osf () in
  let send = stamp_us oc (fun () ->
    Bl_path.user_send_overhead oc Os_costs.osf1 ~bytes:16) in
  let recv = stamp_us oc (fun () ->
    Bl_path.user_recv_overhead oc Os_costs.osf1 ~bytes:16) in
  (* Per-endpoint boundary overheads that produce the 789-vs-565
     Ethernet RTT gap: roughly 100-230us per round trip. *)
  check bool (Printf.sprintf "send+recv 40-120us (got %.0f)" (send +. recv))
    true (send +. recv > 60. && send +. recv < 160.);
  (* Copies scale the overhead with packet size. *)
  let recv_big = stamp_us oc (fun () ->
    Bl_path.user_recv_overhead oc Os_costs.osf1 ~bytes:8132) in
  check bool "copy cost visible" true (recv_big > recv +. 20.)

let () =
  Alcotest.run "spin_baseline"
    [
      ( "table2",
        [
          test_case "syscall ordering" `Quick test_syscall_ordering;
          test_case "cross-AS call ordering" `Quick test_cross_as_call_ordering;
        ] );
      ( "table4",
        [
          test_case "fault ordering" `Quick test_vm_fault_ordering;
          test_case "protect scaling" `Quick test_vm_protect_scaling;
          test_case "mach lazy unprotect" `Quick test_mach_lazy_unprotect;
          test_case "appel compositions" `Quick test_appel_compositions;
        ] );
      ( "table5",
        [ test_case "user net overheads" `Quick test_net_overheads_positive ] );
    ]

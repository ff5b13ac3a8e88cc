(* Tests for the DEC OSF/1 and Mach 3.0 baseline models: the absolute
   calibration lives in the bench; here we check the structural
   relationships the paper's tables exhibit. *)

open Alcotest
open Spin_baseline

let osf () = Bl_kernel.create Os_costs.osf1 ~name:"osf1"
let mach () = Bl_kernel.create Os_costs.mach3 ~name:"mach"
let clock o = (Bl_kernel.machine o).Spin_machine.Machine.clock

let test_syscall_ordering () =
  (* Table 2: SPIN 4 < OSF 5 < Mach 7 us. *)
  let o = osf () and m = mach () in
  let osf_us = Bl_kernel.stamp_us o (fun () -> Bl_kernel.null_syscall o) in
  let mach_us = Bl_kernel.stamp_us m (fun () -> Bl_kernel.null_syscall m) in
  check bool (Printf.sprintf "OSF ~5us (got %.2f)" osf_us) true
    (osf_us > 4. && osf_us < 6.);
  check bool (Printf.sprintf "Mach ~7us (got %.2f)" mach_us) true
    (mach_us > 6. && mach_us < 8.)

let test_cross_as_call_ordering () =
  (* Table 2: SPIN 89 < Mach 104 << OSF 845 us. *)
  let o = osf () and m = mach () in
  let osf_us = Bl_kernel.stamp_us o (fun () -> Bl_kernel.cross_address_space_call o) in
  let mach_us = Bl_kernel.stamp_us m (fun () -> Bl_kernel.cross_address_space_call m) in
  check bool (Printf.sprintf "OSF in the 700-1000us band (got %.0f)" osf_us)
    true (osf_us > 700. && osf_us < 1000.);
  check bool (Printf.sprintf "Mach in the 90-120us band (got %.0f)" mach_us)
    true (mach_us > 90. && mach_us < 120.);
  check bool "order" true (mach_us < osf_us)

let test_thread_ops_ordering () =
  (* Table 3 kernel threads: SPIN 22 < Mach 101 < OSF 198 (Fork-Join). *)
  let o = osf () and m = mach () in
  let run k f =
    let out = ref 0. in
    Bl_kernel.in_kernel_thread k (fun () ->
      out := Bl_kernel.stamp_us k f);
    !out in
  let osf_fj = run o (fun () -> Bl_kernel.fork_join o ~user:false) in
  let mach_fj = run m (fun () -> Bl_kernel.fork_join m ~user:false) in
  check bool (Printf.sprintf "OSF fork-join ~198us (got %.0f)" osf_fj) true
    (osf_fj > 120. && osf_fj < 280.);
  check bool (Printf.sprintf "Mach fork-join ~101us (got %.0f)" mach_fj) true
    (mach_fj > 60. && mach_fj < 150.);
  check bool "mach < osf" true (mach_fj < osf_fj)

let test_user_threads_cost_more () =
  let o = osf () in
  let run f =
    let out = ref 0. in
    Bl_kernel.in_kernel_thread o (fun () -> out := Bl_kernel.stamp_us o f);
    !out in
  let kernel = run (fun () -> Bl_kernel.fork_join o ~user:false) in
  let user = run (fun () -> Bl_kernel.fork_join o ~user:true) in
  check bool "user-level P-threads slower" true (user > kernel *. 2.

)

let test_vm_fault_ordering () =
  (* Table 4 Fault: SPIN 29 << Mach 415 > OSF 329. *)
  let o = osf () and m = mach () in
  Bl_kernel.vm_setup o ~pages:128;
  Bl_kernel.vm_setup m ~pages:128;
  let osf_us = Bl_kernel.stamp_us o (fun () -> Bl_kernel.vm_fault_total o) in
  let mach_us = Bl_kernel.stamp_us m (fun () -> Bl_kernel.vm_fault_total m) in
  check bool (Printf.sprintf "OSF fault ~329us (got %.0f)" osf_us) true
    (osf_us > 250. && osf_us < 420.);
  check bool (Printf.sprintf "Mach fault ~415us (got %.0f)" mach_us) true
    (mach_us > 330. && mach_us < 520.)

let test_vm_protect_scaling () =
  let o = osf () in
  Bl_kernel.vm_setup o ~pages:128;
  let one = Bl_kernel.stamp_us o (fun () ->
    Bl_kernel.vm_protect o ~first:0 ~count:1 ~writable:false) in
  let hundred = Bl_kernel.stamp_us o (fun () ->
    Bl_kernel.vm_protect o ~first:0 ~count:100 ~writable:true) in
  check bool (Printf.sprintf "Prot1 ~45us (got %.0f)" one) true
    (one > 30. && one < 65.);
  check bool "scales with pages" true (hundred > one *. 10.)

let test_mach_lazy_unprotect () =
  (* Table 4: Mach Unprot100 (302us) is much cheaper than Prot100
     (1792us) thanks to lazy evaluation. *)
  let m = mach () in
  Bl_kernel.vm_setup m ~pages:128;
  let prot = Bl_kernel.stamp_us m (fun () ->
    Bl_kernel.vm_protect m ~first:0 ~count:100 ~writable:false) in
  let unprot = Bl_kernel.stamp_us m (fun () ->
    Bl_kernel.vm_protect m ~first:0 ~count:100 ~writable:true) in
  check bool "lazy unprotect much cheaper" true (unprot < prot /. 3.)

let test_appel_compositions () =
  let o = osf () in
  Bl_kernel.vm_setup o ~pages:128;
  let appel1 = Bl_kernel.stamp_us o (fun () -> Bl_kernel.vm_appel1 o) in
  let appel2 = Bl_kernel.vm_appel2_per_page o ~pages:100 in
  (* Appel1 ~ Fault + Prot1 ~ 382 us; Appel2 ~ 351 us/page. *)
  check bool (Printf.sprintf "Appel1 ~382us (got %.0f)" appel1) true
    (appel1 > 280. && appel1 < 480.);
  check bool (Printf.sprintf "Appel2 ~351us/page (got %.0f)" appel2) true
    (appel2 > 250. && appel2 < 450.)

let test_net_overheads_positive () =
  let o = osf () in
  let send = Bl_kernel.stamp_us o (fun () ->
    Bl_path.user_send_overhead (clock o) Os_costs.osf1 ~bytes:16) in
  let recv = Bl_kernel.stamp_us o (fun () ->
    Bl_path.user_recv_overhead (clock o) Os_costs.osf1 ~bytes:16) in
  (* Per-endpoint boundary overheads that produce the 789-vs-565
     Ethernet RTT gap: roughly 100-230us per round trip. *)
  check bool (Printf.sprintf "send+recv 40-120us (got %.0f)" (send +. recv))
    true (send +. recv > 60. && send +. recv < 160.);
  (* Copies scale the overhead with packet size. *)
  let recv_big = Bl_kernel.stamp_us o (fun () ->
    Bl_path.user_recv_overhead (clock o) Os_costs.osf1 ~bytes:8132) in
  check bool "copy cost visible" true (recv_big > recv +. 20.)

let () =
  Alcotest.run "spin_baseline"
    [
      ( "table2",
        [
          test_case "syscall ordering" `Quick test_syscall_ordering;
          test_case "cross-AS call ordering" `Quick test_cross_as_call_ordering;
        ] );
      ( "table3",
        [
          test_case "kernel thread ordering" `Quick test_thread_ops_ordering;
          test_case "user threads cost more" `Quick test_user_threads_cost_more;
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

(* Tests for the assembled SPIN kernel: boot, syscall events,
   extension loading against SpinPublic. *)

open Alcotest
open Spin
module Dispatcher = Spin_core.Dispatcher
module Kdomain = Spin_core.Kdomain
module Object_file = Spin_core.Object_file
module Symbol = Spin_core.Symbol
module Ty = Spin_core.Ty
module Univ = Spin_core.Univ
module Nameserver = Spin_core.Nameserver

let test_boot () =
  let k = Kernel.boot () in
  check bool "clock at boot" true (Kernel.elapsed_us k >= 0.);
  check int "no extensions" 0 (Kernel.extension_count k)

let test_syscall_dispatch () =
  let k = Kernel.boot () in
  Kernel.register_syscall k ~number:42 (fun args -> args.(0) * 2);
  Kernel.register_syscall k ~number:43 (fun _ -> 1000);
  check int "routed by number" 14 (Kernel.syscall k ~number:42 ~args:[| 7 |]);
  check int "other number" 1000 (Kernel.syscall k ~number:43 ~args:[||]);
  check int "unknown number" (-1) (Kernel.syscall k ~number:99 ~args:[||])

let test_syscall_cost_near_4us () =
  let k = Kernel.boot () in
  Kernel.register_syscall k ~number:0 (fun _ -> 0);
  (* Warm: the first raise may take the slow path with 2 handlers. *)
  ignore (Kernel.syscall k ~number:0 ~args:[||]);
  let us = Kernel.stamp_us k (fun () ->
    ignore (Kernel.syscall k ~number:0 ~args:[||])) in
  (* Table 2: SPIN system call = 4 us. *)
  check bool (Printf.sprintf "4us +- 1 (got %.2f)" us) true
    (us > 3.0 && us < 5.0)

let test_load_extension_resolves_public () =
  let k = Kernel.boot () in
  (* A service module exports Console.Write through the kernel. *)
  let tag : (string -> unit) Univ.tag = Univ.tag ~name:"write" () in
  let out = ref [] in
  let console =
    Kdomain.create_from_module ~name:"Console"
      ~exports:[
        (Symbol.make ~intf:"Console" ~name:"Write" (Ty.Proc ([ Ty.Text ], Ty.Unit)),
         Univ.pack tag (fun s -> out := s :: !out));
      ] in
  Kernel.publish k ~name:"ConsoleService" console;
  (* An extension imports it. *)
  let b = Object_file.Builder.create ~name:"gatekeeper.o"
      ~safety:Object_file.Compiler_signed () in
  let cell = Object_file.Builder.import b
      (Symbol.make ~intf:"Console" ~name:"Write" (Ty.Proc ([ Ty.Text ], Ty.Unit))) in
  Object_file.Builder.set_init b (fun () ->
    match !cell with
    | Some u ->
      (match Univ.unpack tag u with
       | Some write -> write "Intruder Alert"
       | None -> ())
    | None -> ());
  (match Kernel.load_extension k (Object_file.Builder.build b) with
   | Ok d -> check bool "fully resolved" true (Kdomain.fully_resolved d)
   | Error e -> fail (Kdomain.error_to_string e));
  check (list string) "extension called the service" [ "Intruder Alert" ] !out;
  check int "counted" 1 (Kernel.extension_count k)

let test_load_unsigned_rejected () =
  let k = Kernel.boot () in
  let b = Object_file.Builder.create ~name:"rogue.o"
      ~safety:Object_file.Unsigned () in
  (match Kernel.load_extension k (Object_file.Builder.build b) with
   | Error (Kdomain.Unsafe_object "rogue.o") -> ()
   | Ok _ -> fail "unsigned extension admitted"
   | Error e -> fail (Kdomain.error_to_string e));
  check int "not counted" 0 (Kernel.extension_count k)

let test_nameserver_authorization_via_kernel () =
  let k = Kernel.boot () in
  let d = Kdomain.create_from_module ~name:"Secret" ~exports:[] in
  Kernel.publish k ~name:"SecretService"
    ~authorize:(fun { Nameserver.who } -> who = "trusted") d;
  (match Nameserver.lookup k.Kernel.nameserver ~name:"SecretService"
           { Nameserver.who = "trusted" } with
   | Ok _ -> ()
   | Error _ -> fail "trusted denied");
  (match Nameserver.lookup k.Kernel.nameserver ~name:"SecretService"
           { Nameserver.who = "rogue" } with
   | Error Nameserver.Denied -> ()
   | _ -> fail "rogue admitted")

let test_kernel_strands_run () =
  let k = Kernel.boot () in
  let n = ref 0 in
  for _ = 1 to 3 do ignore (Kernel.spawn k ~name:"w" (fun () -> incr n)) done;
  Kernel.run k;
  check int "strands completed" 3 !n

let test_in_kernel_call_is_fast () =
  (* Table 2, line 1: protected in-kernel call = 0.13 us. *)
  let k = Kernel.boot () in
  let e = Dispatcher.declare k.Kernel.dispatcher ~name:"Svc.Null" ~owner:"Svc"
      (fun () -> ()) in
  let us = Kernel.stamp_us k (fun () -> Dispatcher.raise_event e ()) in
  check bool (Printf.sprintf "0.13us (got %.3f)" us) true
    (us > 0.10 && us < 0.16)

let () =
  Alcotest.run "spin_kernel"
    [
      ( "kernel",
        [
          test_case "boot" `Quick test_boot;
          test_case "syscall dispatch by guard" `Quick test_syscall_dispatch;
          test_case "syscall costs ~4us" `Quick test_syscall_cost_near_4us;
          test_case "in-kernel call ~0.13us" `Quick test_in_kernel_call_is_fast;
          test_case "extension loading" `Quick test_load_extension_resolves_public;
          test_case "unsigned extension rejected" `Quick test_load_unsigned_rejected;
          test_case "publish with authorization" `Quick
            test_nameserver_authorization_via_kernel;
          test_case "kernel strands" `Quick test_kernel_strands_run;
        ] );
    ]

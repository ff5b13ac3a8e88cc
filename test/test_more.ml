(* Coverage tests: the remaining public APIs across libraries, and
   the kernel's published core-service event interfaces. *)

open Alcotest
open Spin_net
module Kernel = Spin.Kernel
module Dispatcher = Spin_core.Dispatcher
module Kdomain = Spin_core.Kdomain
module Object_file = Spin_core.Object_file
module Symbol = Spin_core.Symbol
module Ty = Spin_core.Ty
module Univ = Spin_core.Univ
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Nic = Spin_machine.Nic
module Machine = Spin_machine.Machine
module Sched = Spin_sched.Sched
module Kthread = Spin_sched.Kthread
module Translation = Spin_vm.Translation

let must r = Dispatcher.ok_exn ~site:"test_more" r

let addr_a = Ip.addr_of_quad 10 0 0 1
let addr_b = Ip.addr_of_quad 10 0 0 2

(* ------------------------------------------------------------------ *)
(* Kernel publishes core events through SpinPublic                    *)
(* ------------------------------------------------------------------ *)

let test_extension_imports_translation_event () =
  let k = Kernel.boot () in
  (* An extension that imports Translation.ProtectionFault by name: the
     paper's loading story end to end, with a core-service event. The
     linker patches the import with the very item the kernel exported
     through SpinPublic. *)
  let b = Object_file.Builder.create ~name:"vmwatch.o"
      ~safety:Object_file.Compiler_signed () in
  let cell = Object_file.Builder.import b
      (Symbol.make ~intf:"Translation" ~name:"ProtectionFault"
         (Ty.Proc ([ Ty.Opaque "Translation.T" ], Ty.Unit))) in
  let imported = ref None in
  Object_file.Builder.set_init b (fun () -> imported := !cell);
  (match Kernel.load_extension k (Object_file.Builder.build b) with
   | Ok _ -> ()
   | Error e -> fail (Kdomain.error_to_string e));
  match !imported,
        Kdomain.lookup k.Kernel.public "Translation.ProtectionFault" with
  | Some got, Some exported ->
    check bool "the import is the kernel's event" true (got == exported)
  | _ -> fail "import did not resolve to the event"

let test_strand_events_published () =
  let k = Kernel.boot () in
  match Spin_core.Nameserver.lookup k.Kernel.nameserver ~name:"StrandService"
          { Spin_core.Nameserver.who = "anyone" } with
  | Ok d ->
    check bool "exports the four events" true
      (List.length (Kdomain.exports d) = 4);
    check bool "block resolvable" true
      (Option.is_some (Kdomain.lookup d "Strand.Block"))
  | Error _ -> fail "StrandService not published"

(* ------------------------------------------------------------------ *)
(* Scheduler odds and ends                                            *)
(* ------------------------------------------------------------------ *)

let test_set_priority_requeues () =
  let m = Machine.create ~name:"t" ~mem_mb:4 () in
  let d = Dispatcher.create m.Machine.clock in
  let s = Sched.create m.Machine.sim d in
  let log = ref [] in
  let lowly = Sched.spawn s ~priority:5 ~name:"low" (fun () ->
    log := "low" :: !log) in
  ignore (Sched.spawn s ~priority:10 ~name:"mid" (fun () ->
    log := "mid" :: !log));
  (* Raise the low strand above mid before anything runs. *)
  Sched.set_priority s lowly 20;
  Sched.run s;
  check (list string) "promoted strand ran first" [ "low"; "mid" ]
    (List.rev !log)

let test_try_lock_and_waiters () =
  let m = Machine.create ~name:"t" ~mem_mb:4 () in
  let d = Dispatcher.create m.Machine.clock in
  let s = Sched.create m.Machine.sim d in
  let mu = Kthread.Mutex.create () in
  let cond = Kthread.Condition.create () in
  let log = ref [] in
  ignore (Sched.spawn s ~name:"a" (fun () ->
    Kthread.Mutex.lock s mu;
    Sched.yield s;
    log := "a unlocks" :: !log;
    Kthread.Mutex.unlock s mu;
    Kthread.Condition.signal s cond));
  ignore (Sched.spawn s ~name:"b" (fun () ->
    Kthread.Mutex.lock s mu;
    log := "b holds" :: !log;
    check int "no condition waiters" 0 (Kthread.Condition.waiters cond);
    Kthread.Mutex.unlock s mu));
  Sched.run s;
  check (list string) "the holder excludes the waiter"
    [ "a unlocks"; "b holds" ] (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Networking odds and ends                                           *)
(* ------------------------------------------------------------------ *)

let in_strand hosts h body =
  let failure = ref None in
  ignore (Sched.spawn h.Host.sched ~name:"t" (fun () ->
    try body () with e -> failure := Some e));
  Host.run_all hosts;
  match !failure with Some e -> raise e | None -> ()

let test_http_bad_request () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let server = Host.create sim ~name:"www" ~addr:addr_b in
  let client = Host.create sim ~name:"c" ~addr:addr_a in
  ignore (Host.wire client server ~kind:Nic.Lance);
  let disk = Machine.add_disk ~blocks:16384 server.Host.machine in
  let bc = Spin_fs.Block_cache.create ~phys:server.Host.phys server.Host.machine server.Host.sched disk in
  let http = ref None in
  ignore (Sched.spawn server.Host.sched ~name:"setup" (fun () ->
    let fs = Spin_fs.Simple_fs.format bc ~blocks:16384 () in
    http := Some (Http.create server.Host.machine server.Host.sched server.Host.tcp
                    (Spin_fs.File_cache.create ~phys:server.Host.phys fs))));
  Host.run_all [ client; server ];
  let response = ref "" in
  in_strand [ client; server ] client (fun () ->
    match Tcp.connect client.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> fail "connect"
    | Some conn ->
      Tcp.send client.Host.tcp conn (Bytes.of_string "BREW /coffee HTCPCP/1.0\r\n");
      response := Bytes.to_string (Tcp.read client.Host.tcp conn));
  check bool "400" true
    (String.length !response >= 12 && String.sub !response 9 3 = "400")

let test_video_send_packet_stacking () =
  (* Another extension stacks on Video.SendPacket to watch traffic —
     the monitoring style of section 3.2 on a data-path event. *)
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let server = Host.create sim ~name:"srv" ~addr:addr_a in
  let sink = Host.create sim ~name:"sink" ~addr:addr_b in
  let nic, _ = Host.wire server sink ~kind:Nic.T3 in
  let disk = Machine.add_disk ~blocks:16384 server.Host.machine in
  let bc = Spin_fs.Block_cache.create ~phys:server.Host.phys server.Host.machine server.Host.sched disk in
  let v = ref None in
  ignore (Sched.spawn server.Host.sched ~name:"setup" (fun () ->
    let fs = Spin_fs.Simple_fs.format bc ~blocks:16384 () in
    let s = Video.create_server server ~fs ~netif:nic ~port:5004 in
    Video.load_frames s ~count:2 ~frame_bytes:2000;
    v := Some s));
  Host.run_all [ server; sink ];
  let s = Option.get !v in
  Video.add_client s addr_b;
  let observed = ref 0 in
  ignore (must @@ Dispatcher.install (Video.send_packet_event s)
            ~installer:"traffic-monitor" (fun (_, _) -> incr observed; 0));
  ignore (Sched.spawn server.Host.sched ~name:"stream" (fun () ->
    Video.stream s ~fps:30 ~duration_s:0.2));
  Host.run_all [ server; sink ];
  check bool "monitor saw every packet" true
    (!observed > 0 && !observed = Video.packets_sent s)

let () =
  Alcotest.run "spin_more"
    [
      ( "kernel_exports",
        [
          test_case "extension imports Translation event" `Quick
            test_extension_imports_translation_event;
          test_case "strand events published" `Quick test_strand_events_published;
        ] );
      ( "sched",
        [
          test_case "set_priority requeues" `Quick test_set_priority_requeues;
          test_case "try_lock and holders" `Quick test_try_lock_and_waiters;
        ] );
      ( "net",
        [
          test_case "http rejects bad requests" `Quick test_http_bad_request;
          test_case "extensions stack on SendPacket" `Quick
            test_video_send_packet_stacking;
        ] );
    ]

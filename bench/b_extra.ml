(* Section 5.5 measurements: dispatcher scalability with guards, the
   impact of automatic storage management, and the web-server
   comparison of section 5.4. *)

open Spin_net
module Kernel = Spin.Kernel
module Dispatcher = Spin_core.Dispatcher
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Nic = Spin_machine.Nic
module Sched = Spin_sched.Sched
module Machine = Spin_machine.Machine
module Kheap = Spin_kgc.Kheap
module Bl_path = Spin_baseline.Bl_path
module Os_costs = Spin_baseline.Os_costs

let addr_a = Ip.addr_of_quad 10 0 0 1
let addr_b = Ip.addr_of_quad 10 0 0 2

(* ------------------------------------------------------------------ *)
(* Dispatcher scalability: Ethernet RTT with extra guards             *)
(* ------------------------------------------------------------------ *)

let udp_rtt_with_watchers ~count ~pass =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let a = Host.create sim ~name:"a" ~addr:addr_a in
  let b = Host.create sim ~name:"b" ~addr:addr_b in
  ignore (Host.wire a b ~kind:Nic.Lance);
  (* Watchers registering interest in the arrival of some UDP packet
     on the server. *)
  for _ = 1 to count do
    ignore
      (Dispatcher.ok_exn ~site:"b_extra"
         (Dispatcher.install (Udp.packet_arrived b.Host.udp)
            ~installer:"watcher"
            ~spec:(Dispatcher.Handler_spec.guarded (fun _ -> pass))
            (fun _ -> ())))
  done;
  ignore (Udp.listen b.Host.udp ~port:7 ~installer:"echo" (fun d ->
    ignore (Udp.send_pkt b.Host.udp ~src_port:7 ~dst:d.Udp.src
              ~port:d.Udp.src_port d.Udp.payload)));
  let rtts = ref [] and t0 = ref 0. and pending = ref 0 in
  ignore (Udp.listen a.Host.udp ~port:7070 ~installer:"probe" (fun _ ->
    rtts := (Clock.now_us clock -. !t0) :: !rtts;
    decr pending));
  ignore (Sched.spawn a.Host.sched ~name:"probe" (fun () ->
    for _ = 1 to 4 do
      t0 := Clock.now_us clock;
      incr pending;
      ignore (Udp.send a.Host.udp ~src_port:7070 ~dst:addr_b ~port:7
                (Bytes.create 16));
      while !pending > 0 do Sched.sleep_us a.Host.sched 50. done
    done));
  Host.run_all [ a; b ];
  match !rtts with
  | [] -> nan
  | _ :: warm -> Report.mean (if warm = [] then !rtts else warm)

let dispatcher_scaling () =
  Report.header "Section 5.5: dispatcher scalability (Ethernet RTT, us)";
  Printf.printf "%-42s %10s %10s\n" "configuration" "paper" "measured";
  let row name paper v = Printf.printf "%-42s %10.0f %10.1f\n" name paper v in
  row "no extra handlers" 565. (udp_rtt_with_watchers ~count:0 ~pass:false);
  row "50 handlers, all guards false" 585.
    (udp_rtt_with_watchers ~count:50 ~pass:false);
  row "50 handlers, all guards true" 637.
    (udp_rtt_with_watchers ~count:50 ~pass:true);
  Report.note
    "  Dispatch grows linearly with installed guards and handlers.\n"

(* ------------------------------------------------------------------ *)
(* Impact of automatic storage management                              *)
(* ------------------------------------------------------------------ *)

let gc_impact () =
  Report.header "Section 5.5: impact of automatic storage management";
  (* Fast paths avoid allocation, so disabling the collector changes
     nothing — re-measure the Table 2 fast paths under both modes. *)
  let fast_paths gc_on =
    let k = Kernel.boot ~name:"gc" () in
    Kheap.set_auto k.Kernel.heap gc_on;
    Kernel.register_syscall k ~number:0 (fun _ -> 0);
    let e = Dispatcher.declare k.Kernel.dispatcher ~name:"G.Null" ~owner:"G"
        (fun () -> ()) in
    let call = Kernel.stamp_us k (fun () -> Dispatcher.raise_event e ()) in
    let sys = Kernel.stamp_us k (fun () ->
      ignore (Kernel.syscall k ~number:0 ~args:[||])) in
    (call, sys) in
  let (c1, s1) = fast_paths true and (c0, s0) = fast_paths false in
  Printf.printf "%-42s %10s %10s\n" "fast path" "GC on" "GC off";
  Printf.printf "%-42s %8.2fus %8.2fus\n" "protected in-kernel call" c1 c0;
  Printf.printf "%-42s %8.2fus %8.2fus\n" "system call" s1 s0;
  Printf.printf "  identical: %b (paper: measurements do not change)\n"
    (c1 = c0 && s1 = s0);
  (* An allocation-heavy rogue extension: the collector reclaims what
     it leaks, for a bounded pause. *)
  let k = Kernel.boot ~name:"gc2" () in
  let heap = k.Kernel.heap in
  (* A live working set survives each collection (and is copied). *)
  let live = Kheap.alloc heap ~owner:"tcp" ~words:512 in
  let _root = Kheap.add_root heap ~name:"tcp-state" (Kheap.Ptr live) in
  for _ = 1 to 3000 do
    ignore (Kheap.alloc heap ~owner:"rogue-ext" ~words:16)
  done;
  let st = Kheap.stats heap in
  Printf.printf
    "  rogue extension: %d collections reclaimed %d words; total pause %.0f us\n"
    st.Kheap.collections st.Kheap.words_freed
    (Cost.cycles_to_us Cost.alpha_133 st.Kheap.pause_cycles);
  Printf.printf "  heap after storm: %d words live of %d allocated\n"
    (Kheap.live_words heap) (Kheap.heap_words heap)

(* ------------------------------------------------------------------ *)
(* Web server: SPIN in-kernel vs user-level on OSF/1                  *)
(* ------------------------------------------------------------------ *)

let web_fixture ?cpus ?(kind = Nic.Lance) ?mbps () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let server = Host.create ?cpus sim ~name:"www" ~addr:addr_b in
  let client = Host.create ?cpus sim ~name:"client" ~addr:addr_a in
  ignore (Host.wire ?mbps client server ~kind);
  let disk = Machine.add_disk ~blocks:65536 server.Host.machine in
  let bc = Spin_fs.Block_cache.create ~phys:server.Host.phys server.Host.machine server.Host.sched disk in
  let cache = ref None in
  ignore (Sched.spawn server.Host.sched ~name:"setup" (fun () ->
    let fs = Spin_fs.Simple_fs.format bc ~blocks:65536 () in
    Spin_fs.Simple_fs.create fs ~name:"index.html";
    Spin_fs.Simple_fs.write fs ~name:"index.html"
      (Bytes.of_string (String.make 2048 'x'));
    let c = Spin_fs.File_cache.create ~phys:server.Host.phys fs in
    ignore (Http.create server.Host.machine server.Host.sched server.Host.tcp c);
    cache := Some c));
  Host.run_all [ client; server ];
  (clock, client, server)

(* The same server with its dispatcher passed to [Http.create], so
   [HTTP.GenContent] is declared and loadable extensions can serve
   dynamic paths — the fixture the hot-swap experiments replace
   content generators on. Also returns the server handle. *)
let web_fixture_full ?cpus () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let server = Host.create ?cpus sim ~name:"www" ~addr:addr_b in
  let client = Host.create ?cpus sim ~name:"client" ~addr:addr_a in
  ignore (Host.wire client server ~kind:Nic.Lance);
  let disk = Machine.add_disk ~blocks:65536 server.Host.machine in
  let bc = Spin_fs.Block_cache.create ~phys:server.Host.phys server.Host.machine server.Host.sched disk in
  let http = ref None in
  ignore (Sched.spawn server.Host.sched ~name:"setup" (fun () ->
    let fs = Spin_fs.Simple_fs.format bc ~blocks:65536 () in
    Spin_fs.Simple_fs.create fs ~name:"index.html";
    Spin_fs.Simple_fs.write fs ~name:"index.html"
      (Bytes.of_string (String.make 2048 'x'));
    let c = Spin_fs.File_cache.create ~phys:server.Host.phys fs in
    http := Some (Http.create ~dispatcher:server.Host.dispatcher
                    server.Host.machine server.Host.sched server.Host.tcp c)));
  Host.run_all [ client; server ];
  (clock, client, server, Option.get !http)

let http_get ?(user_level = false) ?(path = "index.html") clock client =
  let osf = Os_costs.osf1 in
  match Tcp.connect client.Host.tcp ~dst:addr_b ~dst_port:80 with
  | None -> ()
  | Some conn ->
    if user_level then begin
      (* The user-level server's per-request work: accept returns to
         user space, the request is read, the file is fetched through
         the (double-buffered) file system, the response is written —
         each step a crossing with copies. *)
      Bl_path.null_syscall clock osf;                      (* accept *)
      (* A 1995 user-level httpd forks a worker per request: the
         copy-on-write address-space setup over the server image
         dominates (the structural reason the paper's user-level
         server needs 8 ms where SPIN needs 5). *)
      let server_image_pages = 120 in
      Clock.charge clock
        (server_image_pages
         * ((2 * (Clock.cost clock).Spin_machine.Cost.mmu_map_op)
            + osf.Os_costs.vm_layer_per_page));
      Clock.charge clock (2 * (Clock.cost clock).Spin_machine.Cost.addr_space_switch);
      Bl_path.user_recv_overhead clock osf ~bytes:64;      (* read request *)
      Bl_path.null_syscall clock osf;                      (* open *)
      Bl_path.null_syscall clock osf;                      (* stat *)
      Clock.charge clock (2 * Bl_path.copy_cost clock ~bytes:2048);
      (* FS cache -> user buffer -> socket: double buffering *)
      Bl_path.user_send_overhead clock osf ~bytes:2048;    (* write reply *)
      Bl_path.null_syscall clock osf;                      (* close *)
      Bl_path.null_syscall clock osf                       (* wait/exit *)
    end;
    Tcp.send client.Host.tcp conn
      (Bytes.of_string (Printf.sprintf "GET /%s HTTP/1.0\r\n\r\n" path));
    let rec drain () =
      let data = Tcp.read client.Host.tcp conn in
      if Bytes.length data > 0 then drain () in
    drain ()

let web_latency ~user_level =
  let clock, client, server = web_fixture () in
  let out = ref 0. in
  ignore (Sched.spawn client.Host.sched ~name:"client" (fun () ->
    (* Warm the object cache. *)
    http_get ~user_level:false clock client;
    let samples = ref [] in
    for _ = 1 to 5 do
      let t0 = Clock.now_us clock in
      http_get ~user_level clock client;
      samples := (Clock.now_us clock -. t0) :: !samples
    done;
    out := Report.mean !samples));
  Host.run_all [ client; server ];
  !out /. 1000.

let web () =
  Report.header "Section 5.4: web server, client-side latency (ms, cached file)";
  Printf.printf "%-42s %10s %10s\n" "server" "paper" "measured";
  Printf.printf "%-42s %10.0f %10.2f\n" "SPIN in-kernel HTTP + hybrid cache" 5.
    (web_latency ~user_level:false);
  Printf.printf "%-42s %10.0f %10.2f\n" "user-level server on the caching FS" 8.
    (web_latency ~user_level:true)

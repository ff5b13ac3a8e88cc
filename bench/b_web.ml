(* The web workload of section 5.4, defined once: the two-host fixture
   (a client and the in-kernel HTTP server over one wire), the GET
   client, and the closed loop behind every HTTP experiment — load,
   smp, engine, mem, swap and fuzz build on these. Request latencies
   are kept as per-request samples and ranked exactly with spinbench's
   [E2e.Stats] ({!percentile_us}). The [web] experiment itself compares
   SPIN's in-kernel server against a user-level server on OSF/1.

     dune exec bench/main.exe web *)

open Spin_net
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Nic = Spin_machine.Nic
module Machine = Spin_machine.Machine
module Stats = E2e.Stats
module Sched = Spin_sched.Sched
module Block_cache = Spin_fs.Block_cache
module File_cache = Spin_fs.File_cache
module Simple_fs = Spin_fs.Simple_fs
module Bl_path = Spin_baseline.Bl_path
module Os_costs = Spin_baseline.Os_costs

let addr_client = Ip.addr_of_quad 10 0 0 1
let addr_server = Ip.addr_of_quad 10 0 0 2

type t = {
  clock : Clock.t;
  client : Host.t;
  server : Host.t;
  http : Http.t;
  block_cache : Block_cache.t;
  file_cache : File_cache.t;
}

(* The server ("www") formats a disk, writes [files] (name, size) and
   serves them through the file cache. Its dispatcher is passed to
   [Http.create], so [HTTP.GenContent] is declared and loadable
   extensions can serve dynamic paths. Both hosts have [cpus] CPUs
   (default 1). [mem_mb] sizes the server only; the capacities default
   to the caches' own. Returns once setup has
   run to quiescence. *)
let fixture ?(cpus = 1) ?(kind = Nic.Lance) ?mbps ?mem_mb ?cache_blocks
    ?cache_bytes ?(files = [ ("index.html", 2048) ]) () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let server = Host.create ~cpus ?mem_mb sim ~name:"www" ~addr:addr_server in
  let client = Host.create ~cpus sim ~name:"client" ~addr:addr_client in
  ignore (Host.wire ?mbps client server ~kind);
  let disk = Machine.add_disk ~blocks:65536 server.Host.machine in
  let block_cache =
    Block_cache.create ?capacity_blocks:cache_blocks ~phys:server.Host.phys
      server.Host.machine server.Host.sched disk in
  let served = ref None in
  ignore (Sched.spawn server.Host.sched ~name:"setup" (fun () ->
    let fs = Simple_fs.format block_cache ~blocks:65536 () in
    List.iter
      (fun (name, bytes) ->
         Simple_fs.create fs ~name;
         Simple_fs.write fs ~name (Bytes.make bytes 'x'))
      files;
    let file_cache =
      File_cache.create ?capacity_bytes:cache_bytes ~phys:server.Host.phys fs in
    let http =
      Http.create ~dispatcher:server.Host.dispatcher server.Host.machine
        server.Host.sched server.Host.tcp file_cache in
    served := Some (http, file_cache)));
  Host.run_all [ client; server ];
  let http, file_cache = Option.get !served in
  { clock; client; server; http; block_cache; file_cache }

let run w = Host.run_all [ w.client; w.server ]

(* One GET from a client strand: connect, send the request line, read
   until the server closes. Returns the bytes received (headers
   included), 0 when the connection is refused. [user_level] first
   charges the per-request work of a user-level server on OSF/1. *)
let get ?(user_level = false) ?(path = "index.html") w =
  let clock = w.clock and tcp = w.client.Host.tcp in
  let osf = Os_costs.osf1 in
  match Tcp.connect tcp ~dst:addr_server ~dst_port:80 with
  | None -> 0
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
         * ((2 * (Clock.cost clock).Cost.mmu_map_op)
            + osf.Os_costs.vm_layer_per_page));
      Clock.charge clock (2 * (Clock.cost clock).Cost.addr_space_switch);
      Bl_path.user_recv_overhead clock osf ~bytes:64;      (* read request *)
      Bl_path.null_syscall clock osf;                      (* open *)
      Bl_path.null_syscall clock osf;                      (* stat *)
      Clock.charge clock (2 * Bl_path.copy_cost clock ~bytes:2048);
      (* FS cache -> user buffer -> socket: double buffering *)
      Bl_path.user_send_overhead clock osf ~bytes:2048;    (* write reply *)
      Bl_path.null_syscall clock osf;                      (* close *)
      Bl_path.null_syscall clock osf                       (* wait/exit *)
    end;
    Tcp.send tcp conn
      (Bytes.of_string (Printf.sprintf "GET /%s HTTP/1.0\r\n\r\n" path));
    let rec drain got =
      let n = Bytes.length (Tcp.read tcp conn) in
      if n > 0 then drain (got + n) else got in
    drain 0

(* A nearest-rank percentile of latency samples, in virtual us. *)
let percentile_us w samples pct =
  Cost.cycles_to_us (Clock.cost w.clock) (Stats.percentile samples pct)

(* The closed loop: a driver strand on the client warms the caches
   with one GET outside the measurement, then starts [clients] strands
   that each issue [requests] GETs back to back, adding each request's
   virtual cycles to the returned samples (no virtual cost). The
   caller runs the hosts; the returned thunk then gives the measured
   requests per virtual second. *)
let closed_loop ~clients ~requests w =
  let clock = w.clock in
  let latencies = Stats.samples () in
  let total = clients * requests in
  let completed = ref 0 in
  let t_start = ref 0. and t_end = ref 0. in
  let client_loop () =
    for _ = 1 to requests do
      let t0 = Clock.now clock in
      ignore (get w);
      Stats.add latencies (Clock.now clock - t0);
      incr completed;
      if !completed = total then t_end := Clock.now_us clock
    done in
  let sched = w.client.Host.sched in
  ignore (Sched.spawn sched ~name:"driver" (fun () ->
    ignore (get w);
    t_start := Clock.now_us clock;
    for c = 1 to clients do
      ignore (Sched.spawn sched ~name:(Printf.sprintf "client-%d" c)
                client_loop)
    done));
  let rps () =
    let elapsed_us = !t_end -. !t_start in
    if elapsed_us > 0. then float_of_int total /. (elapsed_us /. 1e6)
    else nan in
  (rps, latencies)

(* ------------------------------------------------------------------ *)
(* Web server: SPIN in-kernel vs user-level on OSF/1                  *)
(* ------------------------------------------------------------------ *)

(* Mean client-side latency of five cached GETs, in ms. *)
let latency ~user_level =
  let w = fixture () in
  let out = ref 0. in
  ignore (Sched.spawn w.client.Host.sched ~name:"client" (fun () ->
    ignore (get w);                                      (* warm caches *)
    let samples = ref [] in
    for _ = 1 to 5 do
      let t0 = Clock.now_us w.clock in
      ignore (get ~user_level w);
      samples := (Clock.now_us w.clock -. t0) :: !samples
    done;
    out := Report.mean !samples));
  run w;
  !out /. 1000.

let web () =
  Report.header "Section 5.4: web server, client-side latency (ms, cached file)";
  Printf.printf "%-42s %10s %10s\n" "server" "paper" "measured";
  let row name paper v =
    Printf.printf "%-42s %10.0f %10.2f\n" name paper v;
    Report.metric ~unit_:"ms" ~name v in
  let in_kernel = latency ~user_level:false in
  row "SPIN in-kernel HTTP + hybrid cache" 5. in_kernel;
  let user = latency ~user_level:true in
  row "user-level server on the caching FS" 8. user;
  Report.require ~name:"in-kernel server below the user-level server"
    (in_kernel < user)

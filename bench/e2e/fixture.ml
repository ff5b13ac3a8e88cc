(* What every workload shares: the per-round accumulator, the two-host
   fixture with the in-kernel web server (the benchmark's own copy of
   the bench/ web and memory fixtures), a checking HTTP client, and the
   layer counters read off a fixture. Every host is built with an
   explicit [~cpus], so SPIN_CPUS cannot change a result. *)

open Spin_net
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Machine = Spin_machine.Machine
module Cpu = Spin_machine.Cpu
module Mmu = Spin_machine.Mmu
module Trace = Spin_machine.Trace
module Dispatcher = Spin_core.Dispatcher
module Sched = Spin_sched.Sched
module Phys_addr = Spin_vm.Phys_addr
module Block_cache = Spin_fs.Block_cache
module File_cache = Spin_fs.File_cache
module Simple_fs = Spin_fs.Simple_fs

(* ------------------------------------------------------------------ *)
(* One round                                                           *)
(* ------------------------------------------------------------------ *)

type round = {
  rng : Inputs.rng;
  size : int;                 (* operations this round attempts *)
  lat : Stats.samples;        (* virtual cycles of each completed op *)
  mutable ops : int;          (* attempted *)
  mutable failed : int;       (* failed or returned a wrong output *)
  mutable elapsed : int;      (* virtual cycles of the measured phase *)
}

let round ~rng ~size =
  { rng; size; lat = Stats.samples (); ops = 0; failed = 0; elapsed = 0 }

(* Records one operation: its latency when its output checked out. *)
let finish r ~ok cycles =
  r.ops <- r.ops + 1;
  if ok then Stats.add r.lat cycles else r.failed <- r.failed + 1

(* What a workload's set-up hands the harness: the measured phase, the
   layer counters around it, and the end-of-round invariant sweeps. *)
type prepared = {
  clock : Clock.t;
  read : unit -> (string * int) list;
  go : unit -> unit;
  audit : (string -> unit) -> unit;
}

(* Sched.audit and Dispatcher.audit over every kernel of a fixture. *)
let audit_kernels scheds dispatchers report =
  List.iter (fun s -> Sched.audit s report) scheds;
  List.iter (fun d -> Dispatcher.audit d report) dispatchers

(* Ring capacity of the tracer a traced pass installs. A whole round
   overflows it (trace.dropped counts what was lost), so the Chrome
   trace holds a round's last records; the per-layer totals come from
   the histograms, which overflow does not touch. *)
let trace_capacity = 1 lsl 17

let new_clock () =
  let clock = Clock.create Cost.alpha_133 in
  if !Probe.mode = Probe.Tracing then
    ignore (Trace.of_clock ~capacity:trace_capacity clock);
  clock

(* ------------------------------------------------------------------ *)
(* Layer counters                                                      *)
(* ------------------------------------------------------------------ *)

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

(* Cumulative counters of the machine, dispatcher and scheduler layers
   for a set of machines on one simulation. [net_events] are the
   dispatcher events whose fast-path share is reported. *)
let machine_counters ~sim ~machines ~scheds ~net_events () =
  let clock = Sim.clock sim in
  let s = Sim.stats sim in
  let cpus f =
    sum (fun m -> Array.fold_left (fun a c -> a + f c) 0 m.Machine.cpus) machines in
  let sched f = sum (fun s -> f (Sched.stats s)) scheds in
  let ev f = sum (fun stats -> f (stats ())) net_events in
  let tlb = List.map (fun m -> Mmu.tlb_stats m.Machine.mmu) machines in
  [ ("sim.fired", s.Sim.fired);
    ("sim.pool_hits", s.Sim.pool_hits);
    ("sim.pool_misses", s.Sim.pool_misses);
    ("clock.cycles", Clock.now clock);
    ("clock.busy", Clock.now clock - Clock.idle_cycles clock);
    ("cpu.traps", cpus (fun c -> (Cpu.trap_stats c).Cpu.entries));
    ("mmu.tlb_hits", sum fst tlb);
    ("mmu.tlb_misses", sum snd tlb);
    ("machine.shootdowns", sum (fun m -> fst (Machine.shootdown_stats m)) machines);
    ("sched.switches", sched (fun s -> s.Sched.switches));
    ("sched.preemptions", sched (fun s -> s.Sched.preemptions));
    ("sched.steals", sched (fun s -> s.Sched.steals));
    ("sched.ipi_wakeups", sched (fun s -> s.Sched.ipi_wakeups));
    ("dispatcher.net_raises", ev (fun s -> s.Dispatcher.raises));
    ("dispatcher.net_fast", ev (fun s -> s.Dispatcher.fast_path + s.Dispatcher.trusted_fast));
    ("dispatcher.net_invocations", ev (fun s -> s.Dispatcher.invocations)) ]

(* The run-queue high-water mark, sampled at every scheduling point of
   a counting pass (the probe charges no virtual cycles). *)
let watch_runnable scheds =
  if Probe.counting () then
    List.iter
      (fun s ->
         Sched.set_schedule_probe s
           (Some (fun () ->
                Probe.runnable_max := max !Probe.runnable_max (Sched.runnable_count s))))
      scheds

(* ------------------------------------------------------------------ *)
(* Two hosts and a web server                                          *)
(* ------------------------------------------------------------------ *)

let addr_server = Ip.addr_of_quad 10 1 0 1
let addr_client = Ip.addr_of_quad 10 1 0 2

type pair = {
  clock : Clock.t;
  sim : Sim.t;
  client : Host.t;
  server : Host.t;
  netifs : Netif.t list;
}

(* Two hosts on one simulation, wired back to back. *)
let pair ~cpus ~kind ?mbps ?mem_mb () =
  let clock = new_clock () in
  let sim = Sim.create clock in
  let server = Host.create ?mem_mb ~cpus sim ~name:"server" ~addr:addr_server in
  let client = Host.create ~cpus sim ~name:"client" ~addr:addr_client in
  let nc, ns = Host.wire ?mbps client server ~kind in
  { clock; sim; client; server; netifs = [ nc; ns ] }

let hosts p = [ p.client; p.server ]

let scheds p = List.map (fun h -> h.Host.sched) (hosts p)

let run p = Host.run_all (hosts p)

(* A closed loop: [clients] strands on the client host each work
   through their share of round [r]'s operations back to back. [op k]
   runs operation [k] and says whether its output checked out;
   [r.elapsed] runs to the last completion, and [on_done] is called
   when the last client finishes. *)
let closed_loop p (r : round) ~clients ?(on_done = ignore) op =
  let per_client = r.size / clients and running = ref clients in
  let t_start = Clock.now p.clock in
  for c = 0 to clients - 1 do
    ignore (Sched.spawn p.client.Host.sched ~name:(Printf.sprintf "client-%d" c)
      (fun () ->
         for k = c * per_client to ((c + 1) * per_client) - 1 do
           let t0 = Clock.now p.clock in
           let ok = op k in
           let t1 = Clock.now p.clock in
           finish r ~ok (t1 - t0);
           r.elapsed <- max r.elapsed (t1 - t_start)
         done;
         decr running;
         if !running = 0 then on_done ()))
  done

(* Runs the pair for the measured phase of round [r], which started at
   [t_start] and normally ends with [finished () = true]. Background
   strands (a hog, a churner) never stop by themselves, so a request
   that hangs would keep the simulation going forever: after [limit_us]
   of virtual time, [give_up] stops them, and every operation the round
   did not finish counts as failed. *)
let run_bounded p (r : round) ~t_start ~limit_us ~finished ~give_up =
  let deadline = t_start + Cost.us_to_cycles Cost.alpha_133 limit_us in
  Host.run_all ~until:(fun () -> Clock.now p.clock > deadline) (hosts p);
  if not (finished ()) then begin
    give_up ();
    run p;
    for _ = r.ops + 1 to r.size do finish r ~ok:false 0 done;
    r.elapsed <- deadline - t_start
  end

let audit_pair p =
  audit_kernels (scheds p) (List.map (fun h -> h.Host.dispatcher) (hosts p))

let pair_counters p () =
  let hs = hosts p in
  let net_events =
    List.map (fun n () -> Dispatcher.stats (Netif.rx_event n)) p.netifs
    @ List.concat_map
        (fun h ->
           [ (fun () -> Dispatcher.stats (Ip.packet_arrived h.Host.ip));
             (fun () -> Dispatcher.stats (Udp.packet_arrived h.Host.udp)) ])
        hs in
  machine_counters ~sim:p.sim
    ~machines:(List.map (fun h -> h.Host.machine) hs)
    ~scheds:(scheds p) ~net_events ()
  @ [ ("netif.rx_drops", sum Netif.drops p.netifs);
      ("ip.dropped", sum (fun h -> (Ip.stats h.Host.ip).Ip.dropped) hs);
      ("tcp.segments", sum (fun h -> (Tcp.stats h.Host.tcp).Tcp.segments_sent) hs);
      ("tcp.retransmits", sum (fun h -> (Tcp.stats h.Host.tcp).Tcp.retransmits) hs);
      ("phys_addr.reclaims", Phys_addr.reclaims p.server.Host.phys);
      ("phys_addr.oom_failures", Phys_addr.oom_failures p.server.Host.phys) ]

(* ------------------------------------------------------------------ *)
(* The web server                                                      *)
(* ------------------------------------------------------------------ *)

type web = {
  p : pair;
  http : Http.t;
  cache : File_cache.t;
  bcache : Block_cache.t;
  files : Bytes.t array;      (* file i's contents, served as /fNN *)
}

let file_name i = Printf.sprintf "f%02d" i

let fs_blocks = 8192

(* Formats the server's disk, writes [files] and starts the HTTP server
   on them (with [HTTP.GenContent] declared when [dynamic]). *)
let web_server ?cache_bytes ?cache_blocks ?(dynamic = false) p files =
  let server = p.server in
  let disk = Machine.add_disk ~blocks:fs_blocks server.Host.machine in
  let bcache =
    Block_cache.create ?capacity_blocks:cache_blocks ~phys:server.Host.phys
      server.Host.machine server.Host.sched disk in
  let made = ref None in
  ignore (Sched.spawn server.Host.sched ~name:"setup" (fun () ->
    let fs = Simple_fs.format bcache ~blocks:fs_blocks () in
    Array.iteri
      (fun i body ->
         Simple_fs.create fs ~name:(file_name i);
         Simple_fs.write fs ~name:(file_name i) body)
      files;
    let cache =
      File_cache.create ?capacity_bytes:cache_bytes ~phys:server.Host.phys fs in
    let dispatcher = if dynamic then Some server.Host.dispatcher else None in
    let http =
      Http.create ?dispatcher server.Host.machine server.Host.sched
        server.Host.tcp cache in
    made := Some (http, cache)));
  run p;
  let http, cache = Option.get !made in
  { p; http; cache; bcache; files }

let web_counters w () =
  let fc = File_cache.stats w.cache and bc = Block_cache.stats w.bcache in
  pair_counters w.p ()
  @ [ ("http.fallbacks", (Http.stats w.http).Http.fallbacks);
      ("file_cache.hits", fc.Spin_fs.Cache_stats.hits);
      ("file_cache.misses", fc.Spin_fs.Cache_stats.misses);
      ("block_cache.hits", bc.Spin_fs.Cache_stats.hits);
      ("block_cache.misses", bc.Spin_fs.Cache_stats.misses) ]

(* ------------------------------------------------------------------ *)
(* The checking HTTP client                                            *)
(* ------------------------------------------------------------------ *)

let p_connect = Probe.point "tcp" "connect"
let p_send = Probe.point "tcp" "send"

(* The body of a complete [200 OK] response whose Content-Length
   matches what followed the header, or [None]. *)
let body_of response =
  match
    Scanf.sscanf_opt response "HTTP/1.0 200 OK\r\nContent-Length: %u\r\n\r\n%n"
      (fun n off -> (n, off))
  with
  | Some (n, off) when n = String.length response - off -> Some (String.sub response off n)
  | _ -> None

(* One request as a client sees it: connect, GET, drain to EOF, close.
   Must run on a client strand. *)
let http_get w ~rid path =
  let clock = w.p.clock and tcp = w.p.client.Host.tcp in
  match
    Probe.call clock p_connect ~rid (fun () ->
        Tcp.connect tcp ~dst:addr_server ~dst_port:80)
  with
  | None -> None
  | Some conn ->
    Probe.call clock p_send ~rid (fun () ->
        Tcp.send tcp conn (Bytes.of_string ("GET /" ^ path ^ " HTTP/1.0\r\n\r\n")));
    let buf = Buffer.create 4096 in
    let rec drain () =
      let data = Tcp.read tcp conn in
      if Bytes.length data > 0 then begin
        Buffer.add_bytes buf data;
        drain ()
      end in
    drain ();
    Tcp.close tcp conn;
    body_of (Buffer.contents buf)

(* Fetches file [i] and checks its length and bytes. *)
let fetch_file w ~rid i =
  match http_get w ~rid (file_name i) with
  | Some body -> String.equal body (Bytes.unsafe_to_string w.files.(i))
  | None -> false

(* Fetches every file once from a client strand, so the measured
   requests find the file cache warm. *)
let warm w =
  let ok = ref true in
  ignore (Sched.spawn w.p.client.Host.sched ~name:"warm" (fun () ->
    Array.iteri (fun i _ -> if not (fetch_file w ~rid:0 i) then ok := false) w.files));
  run w.p;
  if not !ok then failwith "warm-up fetch returned a wrong body"

(* Host-side throughput of the discrete-event engine itself.

   Everything else in this harness reports virtual time; this
   experiment reports how fast the simulator's own machinery turns on
   the host — wall-clock events per second, simulated microseconds per
   wall second, and minor-heap words allocated per event. Three
   workloads exercise the engine from different angles:

     - a timer storm: an RTO-like arm/cancel/re-arm churn over ten
       thousand live timers, far more than any measured workload keeps
       pending, so the heap's O(log n) schedule and cancel are at their
       deepest;
     - an HTTP load replay: the web fixture's closed-loop GET traffic,
       where engine time is buried under protocol work;
     - a fuzz-campaign slice: seeded schedule fuzzing, the workload
       whose wall-clock cost bounds how many seeds a campaign covers.

   A fourth workload replays the Tables 2-4 kernel paths: protecting
   and unprotecting 100 pages, an Appel1 fault, a fork/join and a
   ping-pong, step after step on one one-CPU kernel. A fifth replays
   the mem experiment's pressure case untraced: the fetch loop beside
   the allocation hog and the pageout daemon, which sleep, reclaim and
   release pages. Its eight files stay cached, so the cold disk path
   is pinned in test_machine's "hot paths" instead. A sixth replays
   Table 5's SPIN UDP echo over Ethernet untraced, one probe at a
   time: the per-packet netif, IP, UDP and dispatcher path alone.

   The counted rows (events processed, events fired, fuzz decisions)
   are virtual work, so the gate pins them exactly. Every other row is
   a host row: minor words per event, per request, per kernel step,
   per fetch and per echo fail as ceilings (allocation crept back
   into the hot path), and the wall-clock rates are trended in the
   JSON artifact but not gated — CI machines are too noisy to fail a
   build on host throughput.

     dune exec bench/main.exe engine
     dune exec bench/main.exe -- --json BENCH_engine.json engine *)

module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Machine = Spin_machine.Machine
module Sched = Spin_sched.Sched
module Sched_fuzz = Spin_sched.Sched_fuzz
module Host = Spin_net.Host
module Kernel = Spin.Kernel
module Addr = Spin_machine.Addr
module Vm_ext = Spin_vm.Vm_ext

(* ------------------------------------------------------------------ *)
(* Timer storm                                                        *)
(* ------------------------------------------------------------------ *)

let storm_timers = 10_000
let storm_rounds = 30
let storm_step = 2_000                     (* cycles advanced per round *)

(* Deterministic delays, so every run is the identical sequence.
   Mostly short, every 16th far out, like a connection table's mix of
   tick timers and long RTOs. *)
let storm_delays =
  let state = ref 0x12345678 in
  let rand () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state lsr 5 in
  Array.init (storm_timers * (storm_rounds + 1)) (fun i ->
    if i mod 16 = 0 then 1 + (rand () mod (1 lsl 22))
    else 50 + (rand () mod 5_000))

let nop () = ()

(* Each round: every timer re-arms at now + delay, cancelling whatever
   it had pending (fired or not — the caller can't know, which is
   exactly why arming a fired timer must be cheap and safe). *)
type storm_result = {
  st_events : int;                         (* arms, = fires + cancels *)
  st_wall_s : float;
  st_minor_words : float;
}

let measured f =
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = Report.wall_s () in
  let events = f () in
  let wall = Report.wall_s () -. t0 in
  let words = Gc.minor_words () -. w0 in
  { st_events = events; st_wall_s = wall; st_minor_words = words }

let storm () =
  measured (fun () ->
    let clock = Clock.create Cost.alpha_133 in
    let sim = Sim.create clock in
    let timers = Array.init storm_timers (fun _ -> Sim.timer sim) in
    let events = ref 0 in
    let di = ref 0 in
    let arm tm =
      let d = storm_delays.(!di) in
      incr di;
      incr events;
      Sim.arm sim tm d nop in
    Array.iter arm timers;
    for _ = 1 to storm_rounds do
      Clock.skip_to clock (Clock.now clock + storm_step);
      Array.iter arm timers
    done;
    Sim.run sim;
    let s = Sim.stats sim in
    assert (s.Sim.fired + s.Sim.cancelled = !events);
    !events)

(* ------------------------------------------------------------------ *)
(* HTTP load replay and fuzz-campaign slice                           *)
(* ------------------------------------------------------------------ *)

let http_clients = 8
let http_requests_per_client = 20

let http_replay () =
  let w = B_web.fixture () in
  ignore
    (B_web.closed_loop ~clients:http_clients ~requests:http_requests_per_client
       w);
  let v0 = Clock.now_us w.B_web.clock in
  let r =
    measured (fun () ->
      B_web.run w;
      http_clients * http_requests_per_client) in
  (r, Clock.now_us w.B_web.clock -. v0,
   (Sim.stats w.B_web.client.Host.machine.Machine.sim).Sim.fired)

let fuzz_seeds = 6

let fuzz_slice () =
  let sim_us = ref 0. in
  let decisions = ref 0 in
  let r =
    measured (fun () ->
      for seed = 1 to fuzz_seeds do
        let m = Machine.create ~cpus:1 ~name:"engine-fuzz" ~mem_mb:4 () in
        let d = Spin_core.Dispatcher.create m.Machine.clock in
        let s = Sched.create m.Machine.sim d in
        let fz =
          Sched_fuzz.attach ~cpus:[ m.Machine.cpu ] ~dispatcher:d
            ~mean_period:200 ~seed s in
        for i = 1 to 8 do
          ignore (Sched.spawn s ~name:(Printf.sprintf "w%d" i) (fun () ->
            for _ = 1 to 40 do
              Clock.charge m.Machine.clock (50 * i);
              Sched.yield s;
              Sched.sleep_us s (float_of_int i *. 1.5)
            done))
        done;
        Sched.run s;
        let st = Sched_fuzz.stats fz in
        decisions := !decisions + st.Sched_fuzz.decisions;
        Sched_fuzz.detach fz;
        sim_us := !sim_us +. Clock.now_us m.Machine.clock
      done;
      !decisions) in
  (r, !sim_us)

(* ------------------------------------------------------------------ *)
(* Kernel paths                                                       *)
(* ------------------------------------------------------------------ *)

let kernel_steps = 64

(* Minor words per step of the fixed Tables 2-4 mix, read by the
   stepping strand itself (into a float array: no boxing) past a first
   step that warms every path. The Appel1 walk covers pages [100, 128),
   disjoint from the protected range, one read-only page at a time. *)
let kernel_words () =
  let k = Kernel.boot ~cpus:1 ~name:"engine-kernel" () in
  let vm = Vm_ext.create k.Kernel.vm ~app:"engine" ~pages:128 in
  Vm_ext.activate vm;
  let next page = 100 + ((page - 99) mod 28) in
  Vm_ext.on_protection_fault vm (fun page ->
    Vm_ext.protect vm ~first:page ~count:1 Addr.prot_read_write;
    Vm_ext.protect vm ~first:(next page) ~count:1 Addr.prot_read);
  Vm_ext.protect vm ~first:100 ~count:1 Addr.prot_read;
  let threads = B_micro.kernel_threads k in
  let step i =
    Vm_ext.protect vm ~first:0 ~count:100 Addr.prot_read;
    Vm_ext.protect vm ~first:0 ~count:100 Addr.prot_read_write;
    Vm_ext.write vm ~page:(100 + (i mod 28)) 1L;
    B_micro.fork_join k threads;
    B_micro.ping_pong k threads in
  let marks = Array.make 2 0. in
  ignore (Kernel.spawn k ~name:"steps" (fun () ->
    step 0;
    marks.(0) <- Gc.minor_words ();
    for i = 1 to kernel_steps do step i done;
    marks.(1) <- Gc.minor_words ()));
  Kernel.run k;
  (marks.(1) -. marks.(0)) /. float_of_int kernel_steps

(* ------------------------------------------------------------------ *)
(* UDP echo                                                           *)
(* ------------------------------------------------------------------ *)

let udp_probes = 64

(* ------------------------------------------------------------------ *)
(* The experiment                                                     *)
(* ------------------------------------------------------------------ *)

let per_sec n wall = if wall > 0. then float_of_int n /. wall else nan

let run () =
  Report.header "Engine throughput (host wall clock)";

  ignore (storm ());                                   (* warm up *)
  let st = storm () in
  let evs = per_sec st.st_events st.st_wall_s in
  let wpe = st.st_minor_words /. float_of_int st.st_events in
  Printf.printf
    "  timer storm: %d timers, %d rounds of cancel + re-arm\n"
    storm_timers storm_rounds;
  Printf.printf "    %.0f events/sec, %.1f minor words/event\n" evs wpe;
  Report.metric ~unit_:"count" ~name:"storm events processed"
    (float_of_int st.st_events);
  Report.host ~unit_:"ev/s" ~name:"storm events/sec" evs;
  Report.host ~gate:Ceiling ~unit_:"words" ~name:"storm minor words/event" wpe;

  let http, http_sim_us, http_fired = http_replay () in
  let http_sim_rate =
    if http.st_wall_s > 0. then http_sim_us /. http.st_wall_s else nan in
  Printf.printf
    "  HTTP replay: %d requests, %d engine events fired\n"
    http.st_events http_fired;
  Printf.printf "    %.0f requests/sec, %.0f sim-us per wall-second\n"
    (per_sec http.st_events http.st_wall_s) http_sim_rate;
  Report.metric ~unit_:"count" ~name:"http events fired"
    (float_of_int http_fired);
  Report.host ~unit_:"ev/s" ~name:"http requests/sec"
    (per_sec http.st_events http.st_wall_s);
  Report.host ~unit_:"us/s" ~name:"http sim-us per wall-second"
    http_sim_rate;
  Report.host ~gate:Ceiling ~unit_:"words" ~name:"http minor words/request"
    (http.st_minor_words /. float_of_int http.st_events);

  let fuzz, fuzz_sim_us = fuzz_slice () in
  let fuzz_sim_rate =
    if fuzz.st_wall_s > 0. then fuzz_sim_us /. fuzz.st_wall_s else nan in
  Printf.printf "  fuzz slice: %d seeds, %d scheduling decisions\n"
    fuzz_seeds fuzz.st_events;
  Printf.printf "    %.0f decisions/sec, %.0f sim-us per wall-second\n"
    (per_sec fuzz.st_events fuzz.st_wall_s) fuzz_sim_rate;
  Report.metric ~unit_:"count" ~name:"fuzz decisions"
    (float_of_int fuzz.st_events);
  Report.host ~unit_:"dec/s" ~name:"fuzz decisions/sec"
    (per_sec fuzz.st_events fuzz.st_wall_s);
  Report.host ~unit_:"us/s" ~name:"fuzz sim-us per wall-second"
    fuzz_sim_rate;

  let kw = kernel_words () in
  Printf.printf "  kernel paths: %d steps of Prot100, Appel1, fork/join, ping-pong\n"
    kernel_steps;
  Printf.printf "    %.1f minor words/step\n" kw;
  Report.host ~gate:Ceiling ~unit_:"words" ~name:"kernel minor words/step" kw;

  let mem = B_mem.run_case ~traced:false ~hog:true ~reclaim:true in
  Printf.printf "  memory pressure: %d fetches beside the hog and pageout\n"
    B_mem.requests;
  Printf.printf "    %.1f minor words/fetch\n" mem.B_mem.words_per_fetch;
  Report.host ~gate:Ceiling ~unit_:"words" ~name:"mem minor words/fetch"
    mem.B_mem.words_per_fetch;

  let _, udp_words =
    B_net.udp_echo ~probes:udp_probes B_net.Spin_sys Spin_machine.Nic.Lance in
  Printf.printf "  UDP echo: %d probes over Ethernet\n" udp_probes;
  Printf.printf "    %.1f minor words/echo\n" udp_words;
  Report.host ~gate:Ceiling ~unit_:"words" ~name:"udp minor words/echo"
    udp_words

(* SMP scaling: the closed-loop HTTP ramp of the load experiment, held
   at a fixed client population while the number of simulated CPUs per
   host doubles. One level = fresh two-host fixture (client and server
   both [cpus]-way), 16 client strands each running a closed loop of
   connect / GET / drain / close against the server's cached 2 KB
   index.html. Receive processing shards across the server's CPUs
   (one protocol strand per CPU, flows pinned by hash), so both the
   client loops and the server stack spread over the machine.

     dune exec bench/main.exe smp
     dune exec bench/main.exe -- --json BENCH_smp.json smp
     dune exec bench/main.exe -- smp --cpus 4    # ramp only up to 4 *)

open Spin_net
module Trace = Spin_machine.Trace
module Sched = Spin_sched.Sched

(* Highest CPU count in the ramp (overridden by main.exe --cpus). *)
let max_cpus = ref 8

let clients = 16
let requests_per_client = 20

(* Scheduler activity that only exists on a multiprocessor — stolen
   strands and cross-CPU wakeups — summed over both hosts so the table
   shows the machinery actually engaging as the ramp climbs. *)
let smp_activity host_a host_b =
  let s h = Sched.stats h.Host.sched in
  let a = s host_a and b = s host_b in
  (a.Sched.steals + b.Sched.steals,
   a.Sched.ipi_wakeups + b.Sched.ipi_wakeups)

(* The scaling ramp must measure the CPUs, not the wire: on the
   default 10 Mbps Lance a 2 KB response spends ~1.8 ms serializing
   onto the cable, which bounds throughput at ~500 req/s no matter
   how many processors the hosts have. Run the same workload over the
   T3's DMA device model on a 622 Mbps (OC-12) wire instead — the
   protocol and driver work per request is unchanged, but the line
   rate stops being the ceiling. *)
let link_kind = Spin_machine.Nic.T3
let link_mbps = 622.

let run_level ~cpus =
  let w = B_web.fixture ~cpus ~kind:link_kind ~mbps:link_mbps () in
  let tr = Trace.of_clock w.B_web.clock in
  Trace.enable tr;
  let rps = B_web.closed_loop ~clients ~requests:requests_per_client w in
  B_web.run w;
  let steals, ipis = smp_activity w.B_web.client w.B_web.server in
  match Trace.summary tr ~key:B_web.latency_key with
  | Some s -> (rps (), s.Trace.p50_us, s.Trace.p99_us, steals, ipis)
  | None -> (rps (), nan, nan, steals, ipis)

let ramp () =
  let rec levels n = if n > !max_cpus then [] else n :: levels (2 * n) in
  levels 1

let run () =
  Report.header
    (Printf.sprintf
       "SMP scaling: closed-loop HTTP, %d clients, 1..%d CPUs per host"
       clients !max_cpus);
  Printf.printf "%-6s %10s %9s %12s %12s %8s %8s\n"
    "cpus" "req/s" "speedup" "p50 (us)" "p99 (us)" "steals" "ipis";
  let base = ref nan in
  List.iter
    (fun cpus ->
       let rps, p50, p99, steals, ipis = run_level ~cpus in
       if Float.is_nan !base then base := rps;
       let speedup = rps /. !base in
       Printf.printf "%-6d %10.0f %8.2fx %12.0f %12.0f %8d %8d\n"
         cpus rps speedup p50 p99 steals ipis;
       let m name unit_ v =
         Report.metric ~unit_
           ~name:(Printf.sprintf "%s cpus=%d" name cpus) v in
       m "req/s" "req/s" rps;
       m "p50" "us" p50;
       m "p99" "us" p99;
       m "steals" "count" (float_of_int steals);
       m "ipi wakeups" "count" (float_of_int ipis);
       Report.metric ~unit_:"x" ~name:(Printf.sprintf "speedup %dcpu" cpus)
         speedup)
    (ramp ());
  Report.note
    "  With the closed loop holding 16 requests in flight, extra CPUs\n\
    \  drain both the client loops and the server's sharded receive\n\
    \  path; scaling bends once the queues are shallower than the\n\
    \  machine is wide.\n"

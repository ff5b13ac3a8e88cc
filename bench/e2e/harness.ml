(* Runs one workload for a fixed number of rounds and turns what the
   rounds recorded into the benchmark's metrics.

   End-to-end metrics come from untraced passes. With [traced], every
   round is measured again on the same inputs while counting, and the
   first quarter of the rounds a third time while tracing (see Probe);
   both must reproduce the untraced pass's virtual results, and the
   per-layer metrics come from them. *)

module Trace = Spin_machine.Trace
module Cost = Spin_machine.Cost

type metric = { m_name : string; value : float; unit_ : string }

type workload = {
  name : string;
  rounds : int;          (* rounds per 10 s of --seconds *)
  size : int;            (* operations per round *)
  smoke_size : int;      (* operations in the one round of a smoke run *)
  setup : Fixture.round -> Fixture.prepared;
  finale : (seed:int -> smoke:bool -> metric list) option;
      (* a measurement made once per run, outside the rounds *)
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : metric list;             (* the end-to-end metrics *)
  extra : metric list;           (* reported alongside, not compared *)
  layers : metric list;          (* empty unless traced *)
  notes : string list;           (* what went wrong, when [not correct] *)
}

(* ------------------------------------------------------------------ *)
(* One round                                                           *)
(* ------------------------------------------------------------------ *)

type measured = {
  r : Fixture.round;
  setup_ns : int;
  run_ns : int;
  words : float;                  (* minor-heap words of the run phase *)
  audit : string list;
}

let measure_round wl ~seed ~round ~size =
  let r = Fixture.round ~rng:(Inputs.round_rng ~seed ~round) ~size in
  let h0 = Probe.now_ns () in
  let p = wl.setup r in
  let h1 = Probe.now_ns () in
  let tracing = !Probe.mode = Probe.Tracing in
  if tracing then Trace.enable (Trace.of_clock p.Fixture.clock);
  Probe.measuring := true;
  let counted = Probe.snapshot p.Fixture.read in
  let w0 = Gc.minor_words () in
  let h2 = Probe.now_ns () in
  p.Fixture.go ();
  let h3 = Probe.now_ns () in
  let w1 = Gc.minor_words () in
  counted ();
  Probe.measuring := false;
  if tracing then Trace.disable (Trace.of_clock p.Fixture.clock);
  let audit = ref [] in
  p.Fixture.audit (fun v -> audit := v :: !audit);
  ({ r; setup_ns = h1 - h0; run_ns = h3 - h2; words = w1 -. w0;
     audit = List.rev !audit },
   p.Fixture.clock)

(* ------------------------------------------------------------------ *)
(* Trace totals                                                        *)
(* ------------------------------------------------------------------ *)

let trace_cats = [ "netif"; "tcp"; "http"; "dispatcher"; "sched"; "vm"; "rpc" ]

(* Virtual us per category: count x mean over the program's span
   histograms, which ring overflow does not thin out. *)
let fold_trace totals tr =
  List.iter
    (fun (key, s) ->
       match String.index_opt key '.' with
       | Some i ->
         let cat = String.sub key 0 i in
         if List.mem cat trace_cats then
           Hashtbl.replace totals cat
             ((Option.value ~default:0. (Hashtbl.find_opt totals cat))
              +. (float_of_int s.Trace.count *. s.Trace.mean_us))
       | None -> ())
    (Trace.summaries tr)

let write_chrome_trace ~dir ~name tr =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (name ^ ".json") in
  let oc = open_out path in
  output_string oc (Trace.to_chrome_json tr);
  close_out oc;
  path

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let us_of_cycles c = Cost.cycles_to_us Cost.alpha_133 c

let m m_name unit_ value = { m_name; value; unit_ }

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let per_op ops name = ratio (Probe.total name) ops

let mean_us key =
  match Hashtbl.find_opt Probe.timings key with
  | Some t when t.Probe.calls > 0 ->
    us_of_cycles t.Probe.cycles /. float_of_int t.Probe.calls
  | _ -> 0.

let mean_host_ns key =
  match Hashtbl.find_opt Probe.timings key with
  | Some t when t.Probe.calls > 0 ->
    float_of_int t.Probe.host_ns /. float_of_int t.Probe.calls
  | _ -> 0.

let pct_us key pct =
  match Hashtbl.find_opt Probe.timings key with
  | Some t when Stats.count t.Probe.lat > 0 -> us_of_cycles (Stats.percentile t.Probe.lat pct)
  | _ -> 0.

(* The per-layer metrics: layer names are lib/ module names, counts are
   normalised per attempted operation, [*_us] are virtual times of the
   benchmark's own calls into a layer and [*_host_ns] host times of the
   same calls. A metric whose layer the workload never enters is 0. *)
let layer_metrics ~ops ~run_ns ~trace_us ~traced_ops ~trace_dropped ~overhead_pct =
  let per = per_op ops in
  let t = Probe.total in
  let events = t "sim.fired" in
  [ m "sim.events_per_op" "count/op" (per "sim.fired");
    m "sim.host_ns_per_event" "ns" (ratio run_ns events);
    m "sim.pool_hit_ratio" "ratio"
      (ratio (t "sim.pool_hits") (t "sim.pool_hits" + t "sim.pool_misses"));
    m "clock.busy_ratio" "ratio" (ratio (t "clock.busy") (t "clock.cycles"));
    m "cpu.traps_per_op" "count/op" (per "cpu.traps");
    m "mmu.tlb_miss_ratio" "ratio"
      (ratio (t "mmu.tlb_misses") (t "mmu.tlb_hits" + t "mmu.tlb_misses"));
    m "machine.shootdowns_per_op" "count/op" (per "machine.shootdowns");
    m "dispatcher.raise_us" "us" (mean_us "dispatcher.raise");
    m "dispatcher.raise_guarded16_us" "us" (mean_us "dispatcher.raise_guarded16");
    m "dispatcher.raise_host_ns" "ns" (mean_host_ns "dispatcher.raise");
    m "dispatcher.fast_ratio" "ratio"
      (ratio (t "dispatcher.net_fast") (t "dispatcher.net_raises"));
    m "dispatcher.invocations_per_raise" "count"
      (ratio (t "dispatcher.net_invocations") (t "dispatcher.net_raises"));
    m "dispatcher.install_us" "us" (mean_us "dispatcher.install");
    m "dispatcher.install_host_ns" "ns" (mean_host_ns "dispatcher.install");
    m "dispatcher.gated_waits_per_op" "count/op" (per "dispatcher.gated_waits");
    m "sched.switches_per_op" "count/op" (per "sched.switches");
    m "sched.preemptions_per_op" "count/op" (per "sched.preemptions");
    m "sched.steals_per_op" "count/op" (per "sched.steals");
    m "sched.ipi_wakeups_per_op" "count/op" (per "sched.ipi_wakeups");
    m "sched.runnable_max" "count" (float_of_int !Probe.runnable_max);
    m "sched.fork_join_us" "us" (mean_us "sched.fork_join");
    m "sched.ping_pong_us" "us" (mean_us "sched.ping_pong");
    m "kernel.syscall_us" "us" (mean_us "kernel.syscall");
    m "vm_ext.protect1_us" "us" (mean_us "vm_ext.protect1");
    m "vm_ext.protect100_us" "us" (mean_us "vm_ext.protect100");
    m "vm_ext.fault_us" "us" (mean_us "vm_ext.fault");
    m "translation.faults_per_op" "count/op" (per "translation.faults");
    m "phys_addr.allocate_p99_us" "us" (pct_us "phys_addr.allocate" 99);
    m "phys_addr.reclaims_per_op" "count/op" (per "phys_addr.reclaims");
    m "pageout.released_per_op" "count/op" (per "pageout.released");
    m "phys_addr.oom_failures" "count" (float_of_int (t "phys_addr.oom_failures"));
    m "udp.send_us" "us" (mean_us "udp.send");
    m "udp.send_host_ns" "ns" (mean_host_ns "udp.send");
    m "udp.gen_late_p99_us" "us" (pct_us "udp.gen_late" 99);
    m "netif.rx_drops" "count" (float_of_int (t "netif.rx_drops"));
    m "ip.dropped" "count" (float_of_int (t "ip.dropped"));
    m "tcp.connect_p50_us" "us" (pct_us "tcp.connect" 50);
    m "tcp.connect_p99_us" "us" (pct_us "tcp.connect" 99);
    m "tcp.send_us" "us" (mean_us "tcp.send");
    m "tcp.segments_per_op" "count/op" (per "tcp.segments");
    m "tcp.retransmits_per_op" "count/op" (per "tcp.retransmits");
    m "http.fallbacks_per_op" "count/op" (per "http.fallbacks");
    m "file_cache.hit_ratio" "ratio"
      (ratio (t "file_cache.hits") (t "file_cache.hits" + t "file_cache.misses"));
    m "block_cache.hit_ratio" "ratio"
      (ratio (t "block_cache.hits") (t "block_cache.hits" + t "block_cache.misses"));
    m "block_cache.misses_per_op" "count/op" (per "block_cache.misses");
    m "swap.hot_swap_us" "us" (mean_us "swap.hot_swap");
    m "swap.pause_p99_us" "us" (pct_us "swap.pause" 99);
    m "swap.held_raises_per_swap" "count" (ratio (t "swap.held_raises") (t "swap.swaps"));
    m "swap.failed_swaps" "count" (float_of_int (t "swap.failed_swaps")) ]
  @ List.map
      (fun cat ->
         m (Printf.sprintf "trace.%s_us_per_op" cat) "us"
           (Option.value ~default:0. (Hashtbl.find_opt trace_us cat)
            /. float_of_int (max 1 traced_ops)))
      trace_cats
  @ [ m "trace.dropped" "count" (float_of_int trace_dropped);
      m "trace.overhead_host_pct" "%" overhead_pct ]

(* ------------------------------------------------------------------ *)
(* A run                                                               *)
(* ------------------------------------------------------------------ *)

let same_virtual (a : Fixture.round) (b : Fixture.round) =
  a.ops = b.ops && a.failed = b.failed && a.elapsed = b.elapsed
  && Stats.to_sorted a.lat = Stats.to_sorted b.lat

(* Rounds and operations per round: fixed for a given [seconds], so a
   seed's virtual results are the same on every machine. *)
let shape wl ~seconds ~smoke =
  if smoke then (1, wl.smoke_size) else (max 1 (wl.rounds * seconds / 10), wl.size)

let run ?trace_dir wl ~seed ~seconds ~smoke ~traced =
  let rounds, size = shape wl ~seconds ~smoke in
  Probe.reset ();
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let lat = Stats.samples () in
  let ops = ref 0 and failed = ref 0 and elapsed = ref 0 and words = ref 0. in
  let counted_ns = ref 0 and traced_ns = ref 0 and baseline_ns = ref 0 in
  let traced_ops = ref 0 in
  let setups = ref [] and host_rates = ref [] in
  let trace_us = Hashtbl.create 8 and trace_dropped = ref 0 in
  let pass mode ~round =
    Probe.mode := mode;
    let m, clock = measure_round wl ~seed ~round ~size in
    Probe.mode := Probe.Off;
    List.iter (fun v -> note "round %d audit: %s" round v) m.audit;
    (m, clock) in
  let same ~round a b =
    if not (same_virtual a.r b.r) then
      note "round %d: probing or tracing changed a virtual result" round in
  (* Tracing triples host time, and what it yields is per operation, so
     a traced run traces the first quarter of its rounds. *)
  let traced_rounds = max 1 (rounds / 4) in
  for round = 0 to rounds - 1 do
    let m, _ = pass Probe.Off ~round in
    if traced then begin
      let mc, _ = pass Probe.Counting ~round in
      same ~round m mc;
      counted_ns := !counted_ns + mc.run_ns;
      if round < traced_rounds then begin
        let mt, clock = pass Probe.Tracing ~round in
        same ~round m mt;
        baseline_ns := !baseline_ns + mc.run_ns;
        traced_ns := !traced_ns + mt.run_ns;
        traced_ops := !traced_ops + mt.r.ops;
        let tr = Trace.of_clock clock in
        fold_trace trace_us tr;
        trace_dropped := !trace_dropped + Trace.dropped tr;
        (match trace_dir with
         | Some dir when round = 0 ->
           let path = write_chrome_trace ~dir ~name:wl.name tr in
           Printf.printf "chrome trace of round 0: %s\n" path
         | _ -> ());
        Trace.clear tr
      end
    end;
    let r = m.r in
    for k = 0 to Stats.count r.lat - 1 do Stats.add lat r.lat.data.(k) done;
    ops := !ops + r.ops;
    failed := !failed + r.failed;
    elapsed := !elapsed + r.elapsed;
    words := !words +. m.words;
    setups := (float_of_int m.setup_ns /. 1e9) :: !setups;
    host_rates := (float_of_int r.ops /. (float_of_int m.run_ns /. 1e9)) :: !host_rates
  done;
  let completed = !ops - !failed in
  if !failed > 0 then note "%d of %d operations failed their output check" !failed !ops;
  let n = Stats.count lat in
  if n = 0 then note "no operation completed";
  let sorted = Stats.to_sorted lat in
  let pct p = if n = 0 then 0. else us_of_cycles (Stats.nearest_rank sorted p) in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let e2e =
    [ m "ops_per_s" "1/s" (float_of_int completed /. (us_of_cycles !elapsed /. 1e6));
      m "p50_us" "us" (pct 50);
      m "p99_us" "us" (pct 99);
      (* Other work on the host only ever slows a round down, so the
         fastest rounds measure the simulator: the upper decile of the
         round rates is steadier from run to run than their median. *)
      m "host_ops_per_s" "1/s" (Stats.upper_decile !host_rates);
      m "host_words_per_op" "words" (!words /. float_of_int (max 1 !ops));
      m "host_peak_mb" "MB" (float_of_int (top_heap * (Sys.word_size / 8)) /. 1e6);
      m "setup_s" "s" (Stats.median !setups) ] in
  let extra =
    [ m "failed_ratio" "ratio" (ratio !failed !ops);
      m "latency_samples" "count" (float_of_int n);
      m "rounds" "count" (float_of_int rounds) ]
    @ (match wl.finale with None -> [] | Some f -> f ~seed ~smoke) in
  let layers =
    if not traced then []
    else
      layer_metrics ~ops:!ops ~run_ns:!counted_ns ~trace_us ~traced_ops:!traced_ops
        ~trace_dropped:!trace_dropped
        ~overhead_pct:(100. *. ((float_of_int !traced_ns /. float_of_int !baseline_ns) -. 1.)) in
  {
    correct = !notes = [];
    attempted = !ops;
    failed = !failed;
    e2e;
    extra;
    layers;
    notes = List.rev !notes;
  }

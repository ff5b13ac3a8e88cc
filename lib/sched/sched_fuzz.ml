module Clock = Spin_machine.Clock
module Sim = Spin_machine.Sim
module Cpu = Spin_machine.Cpu
module Dispatcher = Spin_core.Dispatcher

let owner = "SchedFuzz"

(* SplitMix64 ({!Spin_dstruct.Splitmix}): tiny, full-period, and
   stable across platforms, so a seed names the same schedule
   everywhere. No global state — replay depends on nothing but the
   seed and the workload. *)
module Rng = Spin_dstruct.Splitmix

type stats = {
  seed : int;
  mutable decisions : int;          (* strand choices *)
  mutable cpu_decisions : int;      (* CPU and steal choices (0 on one CPU) *)
  mutable injected_preempts : int;  (* forced at charge boundaries *)
  mutable violations : int;
}

type t = {
  sched : Sched.t;
  clock : Clock.t;
  sim : Sim.t;
  cpus : Cpu.t list;
  dispatcher : Dispatcher.t;
  rng : Rng.t;
  mean_period : int;
  mutable enabled : bool;
  mutable next_preempt : int;
  stats : stats;
  violation_log : string Queue.t;            (* capped at [max_log] *)
  strands : (int, Strand.t) Hashtbl.t;       (* every strand ever seen *)
  mutable trackers :
    ((Strand.t, unit) Dispatcher.event * (Strand.t, unit) Dispatcher.handler)
    list;
}

let max_log = 100

let record t msg =
  t.stats.violations <- t.stats.violations + 1;
  if Queue.length t.violation_log < max_log then
    Queue.add (Printf.sprintf "[cycle %d] %s" (Clock.now t.clock) msg)
      t.violation_log

let audit_now t =
  Sched.audit t.sched (fun m -> record t ("sched: " ^ m));
  Dispatcher.audit t.dispatcher (fun m -> record t ("dispatcher: " ^ m))

let schedule_next_preempt t =
  t.next_preempt <-
    Clock.now t.clock + 1 + Rng.below t.rng (2 * t.mean_period)

let attach ~cpus ~dispatcher ?(mean_period = 2_000) ~seed sched =
  let t = {
    sched; clock = Sched.clock sched; sim = Sched.sim sched;
    cpus; dispatcher;
    rng = Rng.create ~seed;
    mean_period; enabled = true; next_preempt = 0;
    stats =
      { seed; decisions = 0; cpu_decisions = 0; injected_preempts = 0;
        violations = 0 };
    violation_log = Queue.create ();
    strands = Hashtbl.create 64;
    trackers = [];
  } in
  (* Track the strand population through the paper's strand events:
     every strand that runs raises Resume, every sleeper raises Block,
     so the lost-wakeup checker knows who could be stranded. *)
  let track s = Hashtbl.replace t.strands s.Strand.id s in
  let ev = Sched.events sched in
  let tracker e =
    (e, Dispatcher.ok_exn ~site:"Sched_fuzz.attach"
          (Dispatcher.install e ~installer:owner track)) in
  t.trackers <- [ tracker ev.Sched.resume; tracker ev.Sched.block ];
  (* Random schedule: replace the policy, not the mechanism. Every
     choice — the strand, and on a multiprocessor the CPU that advances
     and whether (and what) an idle CPU steals — draws from the one RNG
     in scheduling order, so a seed names exactly one schedule; on one
     CPU only strands are chosen, so single-CPU draws (and their golden
     replay digests) do not depend on the SMP choices. *)
  Sched.set_chooser sched
    (Some (fun kind n ->
       (match kind with
        | Sched.Strand -> t.stats.decisions <- t.stats.decisions + 1
        | Sched.Cpu | Sched.Steal ->
          t.stats.cpu_decisions <- t.stats.cpu_decisions + 1);
       Rng.below t.rng n));
  Sched.set_violation_hook sched (Some (fun m -> record t ("sched: " ^ m)));
  Dispatcher.set_violation_hook dispatcher
    (Some (fun m -> record t ("dispatcher: " ^ m)));
  Sched.set_schedule_probe sched (Some (fun () -> audit_now t));
  schedule_next_preempt t;
  (* Preemption injection: every Clock.charge boundary is a potential
     interrupt; fire one whenever the random deadline passes. The hook
     only reads a flag when disabled and never charges cycles. *)
  Clock.add_hook t.clock (fun clock ->
    if t.enabled && Clock.now clock >= t.next_preempt then begin
      t.stats.injected_preempts <- t.stats.injected_preempts + 1;
      Sched.request_preempt sched;
      schedule_next_preempt t
    end);
  t

let detach t =
  t.enabled <- false;
  Sched.set_chooser t.sched None;
  Sched.set_schedule_probe t.sched None;
  Sched.set_violation_hook t.sched None;
  Dispatcher.set_violation_hook t.dispatcher None;
  List.iter (fun (e, h) -> Dispatcher.uninstall e h) t.trackers;
  t.trackers <- []

let check_quiescence ?(exempt = fun _ -> false) t =
  audit_now t;
  (* Quiescence must account in-flight work on every CPU: a wakeup
     still travelling as an IPI is work the run-queue sum cannot see. *)
  (let marked = Sched.pending_ipi_count t.sched in
   if marked > 0 then
     record t
       (Printf.sprintf "%d wakeup IPI(s) never delivered at quiescence" marked));
  (let inflight = Sched.ipis_undelivered t.sched in
   if inflight > 0 then
     record t
       (Printf.sprintf "%d IPI(s) still in an inbox at quiescence" inflight));
  if Sched.runnable_count t.sched > 0 then
    record t "quiescence check ran with runnable strands"
  else begin
    let blocked =
      Hashtbl.fold
        (fun _ s acc ->
          if s.Strand.state = Strand.Blocked then s :: acc else acc)
        t.strands [] in
    (* Lost wakeup: a strand still blocked when nothing can ever wake
       it — no runnable strand, no pending device/timer event. Exempt
       daemons (packet-receive loops, pageout) block forever by
       design. *)
    if Sim.pending t.sim = 0 then
      List.iter
        (fun s ->
          if not (exempt s) then
            record t
              (Printf.sprintf
                 "lost wakeup: %s blocked at quiescence with nothing pending"
                 (Strand.to_string s)))
        blocked;
    (* Trap accounting balances once nothing is suspended mid-trap —
       on every CPU, not just the boot processor. *)
    if blocked = [] then
      List.iter
        (fun cpu ->
          let ts = Cpu.trap_stats cpu in
          if ts.Cpu.entries <> ts.Cpu.exits then
            record t
              (Printf.sprintf
                 "unbalanced trap accounting on CPU %d: %d entries, %d exits"
                 (Cpu.id cpu) ts.Cpu.entries ts.Cpu.exits))
        t.cpus
  end

let stats t = { t.stats with seed = t.stats.seed }

let violations t = List.of_seq (Queue.to_seq t.violation_log)

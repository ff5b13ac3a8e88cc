module Dispatcher = Spin_core.Dispatcher
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Intr = Spin_machine.Intr
module Trace = Spin_machine.Trace
module Dllist = Spin_dstruct.Dllist

type events = {
  block : (Strand.t, unit) Dispatcher.event;
  unblock : (Strand.t, unit) Dispatcher.event;
  checkpoint : (Strand.t, unit) Dispatcher.event;
  resume : (Strand.t, unit) Dispatcher.event;
}

type params = {
  quantum : int;
  spawn_cost : int;
  switch_extra : int;
}

let default_params = {
  quantum = 50_000;                       (* ~375 us slices *)
  spawn_cost = 1460;
  switch_extra = 130;
}

type stats = {
  switches : int;
  preemptions : int;
  spawned : int;
  completed : int;
  failed : int;
  redundant_unblocks : int;
  dead_unblocks : int;
  steals : int;
  ipi_wakeups : int;
  ipi_dropped : int;
}

type selector = Strand.t list -> Strand.t option

type cpu_selector = int list -> int option

type steal_policy = thief:int -> Strand.t list -> Strand.t option

type t = {
  sim : Sim.t;
  clock : Clock.t;
  params : params;
  events : events;
  cpus : int;
  intr : Intr.t option;
  (* Per-CPU run queues: queues.(cpu).(priority). Only the scheduling
     machinery below links and unlinks queue nodes — packages change
     run state exclusively through the Block/Unblock events, and a
     remote CPU's queue is reached only through an IPI or the steal
     path, never by direct mutation from another CPU's context. *)
  queues : Strand.t Dllist.t array array;
  mutable current : Strand.t option;
  mutable exec_cpu : int;                 (* CPU currently dispatching *)
  mutable rr_cpu : int;                   (* round-robin CPU cursor *)
  pending_wakeups : (int, unit) Hashtbl.t;  (* unblocks that raced a block *)
  (* Wakeups travelling as IPIs: strand id -> posted marker. Exactly
     one wakeup IPI is in flight per strand (a second unblock while
     one is posted is redundant); [finish] clears the marker so a late
     IPI for a finished strand drops silently. *)
  ipi_pending : (int, unit) Hashtbl.t;
  mutable slice_start : int;
  mutable preempt_requested : bool;
  (* Scheduler-replacement extension point (paper, section 5.2): when
     installed, the selector picks the next strand from the runnable
     set instead of the default highest-priority-FIFO scan. *)
  mutable selector : selector option;
  (* The SMP members of the same extension-point family. *)
  mutable cpu_selector : cpu_selector option;
  mutable steal_policy : steal_policy option;
  mutable probe : (unit -> unit) option;  (* runs at every scheduling point *)
  mutable on_violation : (string -> unit) option;
  mutable s_switches : int;
  mutable s_preempt : int;
  mutable s_spawned : int;
  mutable s_completed : int;
  mutable s_failed : int;
  mutable s_redundant_unblocks : int;
  mutable s_dead_unblocks : int;
  mutable s_steals : int;
  mutable s_ipi_wakeups : int;
  mutable s_ipi_dropped : int;
}

let owner_name = "GlobalSched"

let report_violation t msg =
  match t.on_violation with Some f -> f msg | None -> ()

let enqueue t ~cpu s =
  (* Double enqueue would strand a stale node in the run queue (the
     handle in [qnode] is overwritten); every enqueue site guards on
     state, so reaching here queued is an invariant break. *)
  if s.Strand.qnode <> None then begin
    report_violation t
      (Printf.sprintf "double enqueue of %s" (Strand.to_string s));
    (match s.Strand.qnode with
     | Some node ->
       Dllist.remove t.queues.(s.Strand.qcpu).(s.Strand.priority) node
     | None -> ())
  end;
  s.Strand.state <- Strand.Runnable;
  s.Strand.qcpu <- cpu;
  s.Strand.qnode <- Some (Dllist.push_back t.queues.(cpu).(s.Strand.priority) s)

let dequeue t s =
  match s.Strand.qnode with
  | Some node ->
    Dllist.remove t.queues.(s.Strand.qcpu).(s.Strand.priority) node;
    s.Strand.qnode <- None
  | None -> ()

(* Where an unblocked strand goes: its pinned CPU if any, else the CPU
   it last ran on (cache locality — stealing redistributes if that CPU
   is overloaded). *)
let target_cpu t s =
  match s.Strand.affinity with
  | Some c when c >= 0 && c < t.cpus -> c
  | Some _ | None ->
    let c = s.Strand.last_cpu in
    if c >= 0 && c < t.cpus then c else 0

(* Default handlers: the global scheduler's own run-state management. *)
let default_block t s =
  match s.Strand.state with
  | Strand.Running | Strand.Runnable | Strand.Created ->
    (* A queued strand is unlinked; a running one is marked and stops
       at its next preemption point (usually immediately, because
       block_current suspends right after raising the event). *)
    dequeue t s;
    s.Strand.state <- Strand.Blocked;
    let tr = Trace.of_clock t.clock in
    if Trace.on tr then
      Trace.instant tr ~cat:"sched" ~name:"block"
        ~args:[ ("strand", s.Strand.name) ] ()
  | Strand.Blocked | Strand.Dead -> ()

let enqueue_wakeup t ~cpu s =
  enqueue t ~cpu s;
  let tr = Trace.of_clock t.clock in
  if Trace.on tr then
    Trace.instant tr ~cat:"sched" ~name:"unblock"
      ~args:[ ("strand", s.Strand.name) ] ();
  (* A wakeup of higher priority preempts the running strand. *)
  (match t.current with
   | Some cur when s.Strand.priority > cur.Strand.priority ->
     t.preempt_requested <- true
   | Some _ | None -> ())

(* The target CPU takes the wakeup IPI: re-examine the strand's state
   at delivery time — it may have been satisfied, finished, or blocked
   again between post and delivery. *)
let deliver_ipi_wakeup t ~cpu s =
  if not (Hashtbl.mem t.ipi_pending s.Strand.id) then
    (* [finish] cleared the marker: the strand died with the IPI in
       flight. Dropping the late interrupt is correct, not a
       violation — count it for the curious. *)
    t.s_ipi_dropped <- t.s_ipi_dropped + 1
  else begin
    Hashtbl.remove t.ipi_pending s.Strand.id;
    match s.Strand.state with
    | Strand.Blocked | Strand.Created -> enqueue_wakeup t ~cpu s
    | Strand.Running ->
      (* Delivery caught the strand mid-switch (between raising Block
         and suspending): record the wakeup so the suspension returns
         immediately — the lost-wakeup race, closed the same way as on
         one CPU. *)
      Hashtbl.replace t.pending_wakeups s.Strand.id ()
    | Strand.Runnable -> t.s_redundant_unblocks <- t.s_redundant_unblocks + 1
    | Strand.Dead -> t.s_ipi_dropped <- t.s_ipi_dropped + 1
  end

let default_unblock t s =
  if Hashtbl.mem t.ipi_pending s.Strand.id then
    (* A wakeup IPI is already in flight for this strand; this unblock
       is satisfied by that delivery. *)
    t.s_redundant_unblocks <- t.s_redundant_unblocks + 1
  else match s.Strand.state with
  | Strand.Blocked | Strand.Created ->
    let cpu = target_cpu t s in
    (match t.intr with
     | Some intr when t.cpus > 1 && cpu <> t.exec_cpu ->
       (* The strand belongs on another CPU's queue: signal that CPU
          instead of reaching into its queue from here. *)
       Hashtbl.replace t.ipi_pending s.Strand.id ();
       t.s_ipi_wakeups <- t.s_ipi_wakeups + 1;
       Intr.post_ipi intr ~cpu (fun () -> deliver_ipi_wakeup t ~cpu s)
     | Some _ | None -> enqueue_wakeup t ~cpu s)
  | Strand.Running ->
    (* The strand is between raising Block and suspending (an
       interrupt handler woke it early): remember the wakeup so the
       suspension returns immediately instead of losing it. *)
    Hashtbl.replace t.pending_wakeups s.Strand.id ()
  | Strand.Runnable -> t.s_redundant_unblocks <- t.s_redundant_unblocks + 1
  | Strand.Dead ->
    (* Waking the dead is a use-after-free in spirit: some package
       kept a strand reference past its lifetime (e.g. an uncancelled
       timer). Harmless here, but the fuzzer flags it. *)
    t.s_dead_unblocks <- t.s_dead_unblocks + 1;
    report_violation t
      (Printf.sprintf "unblock raised on dead strand %s" (Strand.to_string s))

let create ?(params = default_params) ?cpus ?intr sim dispatcher =
  let cpus =
    match cpus, intr with
    | Some n, _ -> n
    | None, Some i -> Intr.cpus i
    | None, None -> 1 in
  if cpus < 1 then invalid_arg "Sched.create: need at least one CPU";
  (match intr with
   | Some i when Intr.cpus i < cpus ->
     invalid_arg "Sched.create: more CPUs than the interrupt controller routes"
   | Some _ | None -> ());
  let clock = Sim.clock sim in
  let rec t =
    lazy
      (let declare name default =
         Dispatcher.declare dispatcher ~name ~owner:owner_name
           ~combine:(fun _ -> ())
           (fun s -> default (Lazy.force t) s) in
       let events = {
         block = declare "Strand.Block" default_block;
         unblock = declare "Strand.Unblock" default_unblock;
         checkpoint = declare "Strand.Checkpoint" (fun _ _ -> ());
         resume = declare "Strand.Resume" (fun _ _ -> ());
       } in
       { sim; clock; params; events; cpus; intr;
         queues =
           Array.init cpus (fun _ ->
             Array.init (Strand.max_priority + 1) (fun _ -> Dllist.create ()));
         current = None; exec_cpu = 0; rr_cpu = 0;
         pending_wakeups = Hashtbl.create 16;
         ipi_pending = Hashtbl.create 16;
         slice_start = 0; preempt_requested = false;
         selector = None; cpu_selector = None; steal_policy = None;
         probe = None; on_violation = None;
         s_switches = 0; s_preempt = 0; s_spawned = 0; s_completed = 0;
         s_failed = 0; s_redundant_unblocks = 0; s_dead_unblocks = 0;
         s_steals = 0; s_ipi_wakeups = 0; s_ipi_dropped = 0 }) in
  let t = Lazy.force t in
  (* Quantum accounting: request preemption when the slice expires. *)
  Clock.add_hook clock (fun clock ->
    match t.current with
    | Some s when s.Strand.state = Strand.Running
               && Clock.now clock - t.slice_start >= t.params.quantum ->
      t.preempt_requested <- true
    | Some _ | None -> ());
  (* Asynchronous dispatcher handlers run on fresh kernel strands. *)
  Dispatcher.set_async_spawn dispatcher (fun thunk ->
    t.s_spawned <- t.s_spawned + 1;
    let s = Strand.create ~owner:owner_name ~name:"async-handler" () in
    s.Strand.coro <- Some (Coro.create thunk);
    s.Strand.last_cpu <- t.exec_cpu;
    enqueue t ~cpu:t.exec_cpu s);
  t

let events t = t.events

let sim t = t.sim

let clock t = t.clock

let ncpus t = t.cpus

let spawn t ?(owner = owner_name) ?priority ~name body =
  Clock.charge t.clock t.params.spawn_cost;
  t.s_spawned <- t.s_spawned + 1;
  let s = Strand.create ~owner ?priority ~name () in
  s.Strand.coro <- Some (Coro.create body);
  (* Spawn locality: the child starts on the spawner's CPU; stealing
     redistributes it if that CPU is overloaded. *)
  s.Strand.last_cpu <- t.exec_cpu;
  enqueue t ~cpu:t.exec_cpu s;
  s

let current t = t.current

let self t =
  match t.current with
  | Some s -> s
  | None -> invalid_arg "Sched.self: not in strand context"

let runnable_on t ~cpu =
  if cpu < 0 || cpu >= t.cpus then invalid_arg "Sched.runnable_on: bad CPU";
  let acc = ref [] in
  for p = 0 to Strand.max_priority do
    (* Build high-priority-first, FIFO within a priority level. *)
    List.iter
      (fun s -> if s.Strand.state = Strand.Runnable then acc := s :: !acc)
      (Dllist.to_list t.queues.(cpu).(Strand.max_priority - p))
  done;
  List.rev !acc

let runnable_strands t =
  let acc = ref [] in
  for p = 0 to Strand.max_priority do
    for cpu = 0 to t.cpus - 1 do
      List.iter
        (fun s -> if s.Strand.state = Strand.Runnable then acc := s :: !acc)
        (Dllist.to_list t.queues.(cpu).(Strand.max_priority - p))
    done
  done;
  List.rev !acc

let scan t ~cpu =
  let rec go p =
    if p < 0 then None
    else
      match Dllist.pop_front t.queues.(cpu).(p) with
      | Some s ->
        s.Strand.qnode <- None;
        if s.Strand.state = Strand.Runnable then Some s else go p
      | None -> go (p - 1) in
  go Strand.max_priority

let next_runnable t ~cpu =
  match t.selector with
  | None -> scan t ~cpu
  | Some select ->
    (* Replaced scheduler: the selector sees this CPU's runnable set
       (in default scan order) and picks any member. Picks outside the
       set are invariant breaks; fall back to the default policy. *)
    (match runnable_on t ~cpu with
     | [] -> scan t ~cpu                   (* prunes any stale entries *)
     | candidates ->
       (match select candidates with
        | None -> scan t ~cpu
        | Some s ->
          if s.Strand.state = Strand.Runnable && s.Strand.qnode <> None
             && s.Strand.qcpu = cpu
          then (dequeue t s; Some s)
          else begin
            report_violation t
              (Printf.sprintf "selector picked non-runnable strand %s"
                 (Strand.to_string s));
            scan t ~cpu
          end))

let queued_on t ~cpu =
  Array.fold_left (fun acc q -> acc + Dllist.length q) 0 t.queues.(cpu)

(* --- work stealing ------------------------------------------------- *)

(* What an idle [thief] may take: strands queued on CPUs holding at
   least two (never the victim's last strand — a lone strand keeps its
   cache locality), not pinned elsewhere. Longest victim first, each
   victim's strands in scan order, so the default policy — take the
   head — steals the longest-waiting urgent strand from the most
   overloaded CPU. *)
let stealable t ~thief =
  let victims =
    List.init t.cpus (fun c -> c)
    |> List.filter (fun c -> c <> thief && queued_on t ~cpu:c >= 2)
    |> List.stable_sort
         (fun a b -> compare (queued_on t ~cpu:b) (queued_on t ~cpu:a)) in
  List.concat_map
    (fun v ->
      List.filter
        (fun s ->
          match s.Strand.affinity with
          | None -> true
          | Some a -> a = thief)
        (runnable_on t ~cpu:v))
    victims

let try_steal t ~thief =
  match stealable t ~thief with
  | [] -> ()
  | candidates ->
    let pick =
      match t.steal_policy with
      | None -> Some (List.hd candidates)
      | Some policy -> policy ~thief candidates in
    (match pick with
     | None -> ()
     | Some s ->
       if s.Strand.state = Strand.Runnable && s.Strand.qnode <> None
          && s.Strand.qcpu <> thief
          && (match s.Strand.affinity with None -> true | Some a -> a = thief)
          && queued_on t ~cpu:s.Strand.qcpu >= 2
       then begin
         dequeue t s;
         enqueue t ~cpu:thief s;
         t.s_steals <- t.s_steals + 1
       end else
         report_violation t
           (Printf.sprintf "steal policy picked unstealable strand %s"
              (Strand.to_string s)))

(* Idle-time balancing, run at every scheduling point: each CPU with
   an empty queue pulls at most one strand. *)
let rebalance t =
  if t.cpus > 1 then
    for thief = 0 to t.cpus - 1 do
      if queued_on t ~cpu:thief = 0 then try_steal t ~thief
    done

(* --- dispatch ------------------------------------------------------ *)

let finish t s outcome =
  (* The strand is leaving for good: unlink it from the run queue (a
     block/unblock race while it ran can leave it queued) and drop any
     raced wakeup or in-flight wakeup IPI, or the queue retains a dead
     strand and the next occupant of this id inherits a spurious
     wakeup. *)
  dequeue t s;
  Hashtbl.remove t.pending_wakeups s.Strand.id;
  Hashtbl.remove t.ipi_pending s.Strand.id;
  s.Strand.state <- Strand.Dead;
  (match outcome with
   | Coro.Failed e ->
     s.Strand.failure <- Some e;
     t.s_failed <- t.s_failed + 1
   | Coro.Done -> t.s_completed <- t.s_completed + 1
   | Coro.Suspended _ -> assert false);
  (* Capability dies with the strand. *)
  Spin_core.Capability.revoke (Strand.capability s);
  (* Wake joiners. *)
  let rec wake () =
    match Dllist.pop_front s.Strand.joiners with
    | None -> ()
    | Some j ->
      Dispatcher.raise_default t.events.unblock () j;
      wake () in
  wake ()

let execute t ~cpu s =
  let cost = Clock.cost t.clock in
  Clock.charge t.clock (cost.Cost.context_switch + t.params.switch_extra);
  t.s_switches <- t.s_switches + 1;
  t.exec_cpu <- cpu;
  (match t.intr with Some intr -> Intr.set_active_cpu intr cpu | None -> ());
  s.Strand.last_cpu <- cpu;
  let tr = Trace.of_clock t.clock in
  if Trace.on tr then begin
    let args = [ ("strand", s.Strand.name); ("owner", s.Strand.owner) ] in
    (* CPU tag only on multiprocessors, keeping single-CPU traces (and
       their golden digests) byte-identical. *)
    let args =
      if t.cpus > 1 then args @ [ ("cpu", string_of_int cpu) ] else args in
    Trace.instant tr ~cat:"sched" ~name:"switch" ~args ()
  end;
  Dispatcher.raise_default t.events.resume () s;
  s.Strand.state <- Strand.Running;
  t.current <- Some s;
  t.slice_start <- Clock.now t.clock;
  t.preempt_requested <- false;
  let coro =
    match s.Strand.coro with
    | Some c -> c
    | None -> invalid_arg "Sched: strand has no kernel context" in
  (* The span key is the strand name, so each strand gets its own
     run-time aggregate. *)
  let run_span =
    if Trace.on tr then
      Trace.begin_span tr ~cat:"sched" ~name:s.Strand.name ()
    else Trace.null_span in
  let outcome = Coro.run coro in
  Trace.end_span tr run_span;
  t.current <- None;
  Dispatcher.raise_default t.events.checkpoint () s;
  match outcome with
  | Coro.Done | Coro.Failed _ -> finish t s outcome
  | Coro.Suspended Coro.Yielded ->
    (* A wakeup recorded while the strand ran is satisfied by it
       staying runnable (and void if it was blocked after the wakeup):
       drop it, or the entry goes stale and short-circuits an
       unrelated later block. *)
    Hashtbl.remove t.pending_wakeups s.Strand.id;
    if s.Strand.state = Strand.Running then enqueue t ~cpu s
    (* else: someone blocked it while it was being preempted *)
  | Coro.Suspended Coro.Blocked ->
    if Hashtbl.mem t.pending_wakeups s.Strand.id then begin
      (* A wakeup raced the suspension: resume immediately. *)
      Hashtbl.remove t.pending_wakeups s.Strand.id;
      enqueue t ~cpu s
    end else if s.Strand.state = Strand.Running then
      s.Strand.state <- Strand.Blocked

let busy_cpus t =
  let acc = ref [] in
  for c = t.cpus - 1 downto 0 do
    if queued_on t ~cpu:c > 0 then acc := c :: !acc
  done;
  !acc

let default_pick t candidates =
  (* First candidate at or after the round-robin cursor, wrapping. *)
  match List.find_opt (fun c -> c >= t.rr_cpu) candidates with
  | Some c -> c
  | None -> List.hd candidates

let pick_cpu t =
  match busy_cpus t with
  | [] -> None
  | [ c ] -> Some c
  | candidates ->
    let c =
      match t.cpu_selector with
      | None -> default_pick t candidates
      | Some select ->
        (match select candidates with
         | Some c when List.mem c candidates -> c
         | Some c ->
           report_violation t
             (Printf.sprintf "cpu selector picked CPU %d with no work" c);
           default_pick t candidates
         | None -> default_pick t candidates) in
    t.rr_cpu <- (c + 1) mod t.cpus;
    Some c

let drain_all_ipis t =
  match t.intr with
  | None -> ()
  | Some intr ->
    for c = 0 to t.cpus - 1 do
      ignore (Intr.drain_ipis intr ~cpu:c)
    done

let step t =
  (* Scheduling point. Deliver pending IPIs first — every CPU is at an
     instruction boundary between slices — so checkers observe the
     quiescent state with no wakeup half-travelled, then let idle CPUs
     steal, then pick the CPU (and strand) to advance. *)
  drain_all_ipis t;
  (match t.probe with Some f -> f () | None -> ());
  rebalance t;
  let rec try_pick () =
    match pick_cpu t with
    | None -> false
    | Some cpu ->
      match next_runnable t ~cpu with
      | None -> try_pick ()               (* queue held only stale entries *)
      | Some s ->
        (* Wall-clock concurrency: every other CPU with queued work
           runs its own slice during this one, so work cycles charged
           here advance wall time at 1/K. *)
        let busy =
          1 + List.length (List.filter (fun c -> c <> cpu) (busy_cpus t)) in
        Clock.set_parallel t.clock busy;
        Fun.protect
          ~finally:(fun () -> Clock.set_parallel t.clock 1)
          (fun () -> execute t ~cpu s);
        true in
  try_pick ()

let run ?(until = fun () -> false) t =
  let rec loop () =
    if not (until ()) then
      if step t then loop ()
      else if Sim.idle_step t.sim then loop () in
  loop ()

let yield t =
  match t.current with
  | Some _ -> Coro.suspend Coro.Yielded
  | None -> invalid_arg "Sched.yield: not in strand context"

let block t s = Dispatcher.raise_default t.events.block () s

let unblock t s = Dispatcher.raise_default t.events.unblock () s

(* The scheduler raises Checkpoint/Resume around every slice; a hot
   swap raises them around the swap window too, so state-externalizing
   handlers installed on those events fire at both granularities. *)
let checkpoint_notify t s = Dispatcher.raise_default t.events.checkpoint () s

let resume_notify t s = Dispatcher.raise_default t.events.resume () s

let block_current t =
  let s = self t in
  block t s;
  Coro.suspend Coro.Blocked

let sleep_us t us =
  let s = self t in
  let deadline =
    Clock.now t.clock + Cost.us_to_cycles (Clock.cost t.clock) us in
  let timer = Sim.after_us t.sim us (fun () -> unblock t s) in
  (* Tolerate spurious wakeups: sleep again until the deadline. *)
  while Clock.now t.clock < deadline do
    block_current t
  done;
  (* A spurious wakeup whose resumption costs carry the clock past the
     deadline exits the loop with the timer still pending; cancel it
     so it cannot fire at [s] after [s] has moved on (or died). *)
  Sim.cancel t.sim timer

let preempt_point t =
  if t.preempt_requested then begin
    match t.current with
    | Some _ ->
      t.s_preempt <- t.s_preempt + 1;
      t.preempt_requested <- false;
      Coro.suspend Coro.Yielded
    | None -> t.preempt_requested <- false
  end

let set_priority t s priority =
  if priority < 0 || priority > Strand.max_priority then
    invalid_arg "Sched.set_priority: out of range";
  if s.Strand.state = Strand.Runnable && s.Strand.qnode <> None then begin
    let cpu = s.Strand.qcpu in
    dequeue t s;
    s.Strand.priority <- priority;
    enqueue t ~cpu s
  end else
    s.Strand.priority <- priority

let set_affinity t s affinity =
  (match affinity with
   | Some c when c < 0 || c >= t.cpus ->
     invalid_arg "Sched.set_affinity: bad CPU"
   | Some _ | None -> ());
  s.Strand.affinity <- affinity;
  (* A queued strand moves to its pinned CPU immediately. *)
  match affinity with
  | Some c
    when s.Strand.state = Strand.Runnable && s.Strand.qnode <> None
         && s.Strand.qcpu <> c ->
    dequeue t s;
    enqueue t ~cpu:c s
  | Some _ | None -> ()

let install_handler_guarded event ~installer ~cap fn =
  Dispatcher.ok_exn ~site:"Sched.install_handler_guarded"
    (Dispatcher.install event ~installer
       ~spec:(Dispatcher.Handler_spec.guarded (Strand.holds_capability cap))
       fn)

let stats t = {
  switches = t.s_switches;
  preemptions = t.s_preempt;
  spawned = t.s_spawned;
  completed = t.s_completed;
  failed = t.s_failed;
  redundant_unblocks = t.s_redundant_unblocks;
  dead_unblocks = t.s_dead_unblocks;
  steals = t.s_steals;
  ipi_wakeups = t.s_ipi_wakeups;
  ipi_dropped = t.s_ipi_dropped;
}

let runnable_count t =
  let n = ref 0 in
  for cpu = 0 to t.cpus - 1 do
    n := !n + queued_on t ~cpu
  done;
  !n

(* Extension points for schedule exploration (Sched_fuzz) and
   replacement policies. *)

let set_selector t sel = t.selector <- sel

let set_cpu_selector t sel = t.cpu_selector <- sel

let set_steal_policy t policy = t.steal_policy <- policy

let set_schedule_probe t probe = t.probe <- probe

let set_violation_hook t hook = t.on_violation <- hook

let request_preempt t = t.preempt_requested <- true

let pending_wakeup_count t = Hashtbl.length t.pending_wakeups

let pending_ipi_count t = Hashtbl.length t.ipi_pending

let ipis_undelivered t =
  match t.intr with Some intr -> Intr.ipis_pending intr | None -> 0

let gauges t =
  [ ("sched.runnable", fun () -> runnable_count t);
    ("sched.switches", fun () -> t.s_switches);
    ("sched.preemptions", fun () -> t.s_preempt);
    ("sched.steals", fun () -> t.s_steals);
    ("sched.ipi_wakeups", fun () -> t.s_ipi_wakeups);
    ("sched.ipis_in_flight", fun () -> pending_ipi_count t);
    ("sched.pending_wakeups", fun () -> pending_wakeup_count t) ]

let audit t report =
  (* Run-queue membership: every queued strand is Runnable with a live
     back-pointer, queued on the CPU its [qcpu] claims (and its pinned
     CPU if any), and no strand is queued twice machine-wide. *)
  let seen = Hashtbl.create 16 in
  Array.iteri
    (fun cpu per_prio ->
      Array.iteri
        (fun p q ->
          List.iter
            (fun s ->
              if Hashtbl.mem seen s.Strand.id then
                report
                  (Printf.sprintf "strand %s queued twice" (Strand.to_string s));
              Hashtbl.replace seen s.Strand.id ();
              if s.Strand.state <> Strand.Runnable then
                report (Printf.sprintf "%s strand %s in run queue"
                          (Strand.state_to_string s.Strand.state)
                          (Strand.to_string s));
              if s.Strand.qnode = None then
                report (Printf.sprintf "queued strand %s has no queue node"
                          (Strand.to_string s));
              if s.Strand.priority <> p then
                report (Printf.sprintf "strand %s queued at priority %d"
                          (Strand.to_string s) p);
              if s.Strand.qcpu <> cpu then
                report (Printf.sprintf "strand %s queued on CPU %d, qcpu says %d"
                          (Strand.to_string s) cpu s.Strand.qcpu);
              match s.Strand.affinity with
              | Some a when a <> cpu ->
                report (Printf.sprintf "strand %s pinned to CPU %d queued on %d"
                          (Strand.to_string s) a cpu)
              | Some _ | None -> ())
            (Dllist.to_list q))
        per_prio)
    t.queues;
  (* Raced-wakeup entries exist only for Running strands; with no
     strand running, a surviving entry is a leak. *)
  (match t.current with
   | Some _ -> ()
   | None ->
     Hashtbl.iter
       (fun id () ->
         report (Printf.sprintf
                   "stale pending wakeup for strand id %d at scheduling point" id))
       t.pending_wakeups);
  (* Every wakeup-in-flight marker must be backed by an IPI actually
     sitting in an inbox; with the inboxes drained, a surviving marker
     means a wakeup was marked but never posted (or delivered without
     clearing it) — a lost wakeup in the making. *)
  match t.intr with
  | Some intr when Intr.ipis_pending intr = 0 ->
    Hashtbl.iter
      (fun id () ->
        report (Printf.sprintf
                  "wakeup marker for strand id %d with no IPI in flight" id))
      t.ipi_pending
  | Some _ | None -> ()

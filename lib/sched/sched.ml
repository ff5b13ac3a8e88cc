module Dispatcher = Spin_core.Dispatcher
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Intr = Spin_machine.Intr
module Trace = Spin_machine.Trace
module Dllist = Spin_dstruct.Dllist
module Ring = Spin_dstruct.Ring

type events = {
  block : (Strand.t, unit) Dispatcher.event;
  unblock : (Strand.t, unit) Dispatcher.event;
  checkpoint : (Strand.t, unit) Dispatcher.event;
  resume : (Strand.t, unit) Dispatcher.event;
}

let quantum = 50_000                      (* cycles per slice: ~375 us *)

type stats = {
  mutable switches : int;
  mutable preemptions : int;
  mutable completed : int;
  mutable failed : int;
  mutable redundant_unblocks : int;
  mutable dead_unblocks : int;
  mutable steals : int;
  mutable ipi_wakeups : int;
  mutable ipi_dropped : int;
}

type choice = Strand | Cpu | Steal

type t = {
  sim : Sim.t;
  clock : Clock.t;
  events : events;
  cpus : int;
  intr : Intr.t option;
  (* Per-CPU run queues: queues.(cpu).(priority). Only the scheduling
     machinery below links and unlinks queue nodes — packages change
     run state exclusively through the Block/Unblock events, and a
     remote CPU's queue is reached only through an IPI or the steal
     path, never by direct mutation from another CPU's context. *)
  queues : Strand.t Dllist.t array array;
  (* queued.(cpu) = the sum of that CPU's queue lengths, kept by the
     four sites that link or unlink a queue node, so a scheduling point
     reads each CPU's load without folding 32 lists. *)
  queued : int array;
  mutable current : Strand.t option;
  mutable exec_cpu : int;                 (* CPU currently dispatching *)
  mutable rr_cpu : int;                   (* round-robin CPU cursor *)
  (* How many strands carry each [Strand.wakeup] flag: [banked] marks
     an unblock that raced a block, [posted] a wakeup travelling as an
     IPI. Exactly one wakeup IPI is in flight per strand (a second
     unblock while one is posted is redundant); [finish] clears both
     flags, so a late IPI for a finished strand drops silently. *)
  mutable banked_count : int;
  mutable posted_count : int;
  (* Per CPU, the strands whose wakeup IPIs are in flight to it, in
     post order, and the one action each of those IPIs runs: it takes
     the oldest strand of that CPU's ring. *)
  wake_rings : Strand.t Ring.t array;
  wake_actions : (unit -> unit) array;
  mutable slice_start : int;
  mutable preempt_requested : bool;
  (* Scheduler-replacement extension point (paper, section 5.2): when
     installed, the chooser picks the strand, the CPU and the steal by
     index among the candidates the scheduler's own walks offer. *)
  mutable chooser : (choice -> int -> int) option;
  mutable probe : (unit -> unit) option;  (* runs at every scheduling point *)
  mutable on_violation : (string -> unit) option;
  stats : stats;
}

let owner_name = "GlobalSched"

let report_violation t msg =
  match t.on_violation with Some f -> f msg | None -> ()

(* Unlinks [s]'s run-queue node if it is queued. *)
let dequeue t s =
  let node = Strand.run_node s in
  if Dllist.is_linked node then begin
    let cpu = s.Strand.qcpu in
    Dllist.remove t.queues.(cpu).(s.Strand.priority) node;
    t.queued.(cpu) <- t.queued.(cpu) - 1
  end

(* Links the strand's own node: an enqueue allocates nothing. *)
let enqueue t ~cpu s =
  (* Every enqueue site guards on state, so reaching here queued is an
     invariant break: report it and move the node. *)
  if Dllist.is_linked (Strand.run_node s) then begin
    report_violation t
      (Printf.sprintf "double enqueue of %s" (Strand.to_string s));
    dequeue t s
  end;
  s.Strand.state <- Strand.Runnable;
  s.Strand.qcpu <- cpu;
  Dllist.link_back t.queues.(cpu).(s.Strand.priority) (Strand.run_node s);
  t.queued.(cpu) <- t.queued.(cpu) + 1

(* Where an unblocked strand goes: its pinned CPU if any, else the CPU
   it last ran on (cache locality — stealing redistributes if that CPU
   is overloaded). *)
let target_cpu t s =
  match s.Strand.affinity with
  | Some c when c >= 0 && c < t.cpus -> c
  | Some _ | None ->
    let c = s.Strand.last_cpu in
    if c >= 0 && c < t.cpus then c else 0

(* The [Strand.wakeup] flags, each counted while set. *)
let banked = 1 and posted = 2

let flagged s flag = s.Strand.wakeup land flag <> 0

let tally t flag d =
  if flag = banked then t.banked_count <- t.banked_count + d
  else t.posted_count <- t.posted_count + d

let set_flag t s flag =
  if not (flagged s flag) then begin
    s.Strand.wakeup <- s.Strand.wakeup lor flag;
    tally t flag 1
  end

let clear_flag t s flag =
  if flagged s flag then begin
    s.Strand.wakeup <- s.Strand.wakeup land lnot flag;
    tally t flag (-1)
  end

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
  if not (flagged s posted) then
    (* [finish] cleared the flag: the strand died with the IPI in
       flight. Dropping the late interrupt is correct, not a
       violation — count it for the curious. *)
    t.stats.ipi_dropped <- t.stats.ipi_dropped + 1
  else begin
    clear_flag t s posted;
    match s.Strand.state with
    | Strand.Blocked | Strand.Created -> enqueue_wakeup t ~cpu s
    | Strand.Running ->
      (* Delivery caught the strand mid-switch (between raising Block
         and suspending): record the wakeup so the suspension returns
         immediately — the lost-wakeup race, closed the same way as on
         one CPU. *)
      set_flag t s banked
    | Strand.Runnable ->
      t.stats.redundant_unblocks <- t.stats.redundant_unblocks + 1
    | Strand.Dead -> t.stats.ipi_dropped <- t.stats.ipi_dropped + 1
  end

let default_unblock t s =
  if flagged s posted then
    (* A wakeup IPI is already in flight for this strand; this unblock
       is satisfied by that delivery. *)
    t.stats.redundant_unblocks <- t.stats.redundant_unblocks + 1
  else match s.Strand.state with
  | Strand.Blocked | Strand.Created ->
    let cpu = target_cpu t s in
    (match t.intr with
     | Some intr when cpu <> t.exec_cpu ->
       (* The strand belongs on another CPU's queue: signal that CPU
          instead of reaching into its queue from here. *)
       set_flag t s posted;
       t.stats.ipi_wakeups <- t.stats.ipi_wakeups + 1;
       Ring.add t.wake_rings.(cpu) s;
       Intr.post_ipi intr ~cpu t.wake_actions.(cpu)
     | Some _ | None -> enqueue_wakeup t ~cpu s)
  | Strand.Running ->
    (* The strand is between raising Block and suspending (an
       interrupt handler woke it early): remember the wakeup so the
       suspension returns immediately instead of losing it. *)
    set_flag t s banked
  | Strand.Runnable ->
    t.stats.redundant_unblocks <- t.stats.redundant_unblocks + 1
  | Strand.Dead ->
    (* Waking the dead is a use-after-free in spirit: some package
       kept a strand reference past its lifetime (e.g. an uncancelled
       timer). Harmless here, but the fuzzer flags it. *)
    t.stats.dead_unblocks <- t.stats.dead_unblocks + 1;
    report_violation t
      (Printf.sprintf "unblock raised on dead strand %s" (Strand.to_string s))

(* A queued kernel strand running [body]. Spawn locality: it starts on
   the spawner's CPU; stealing redistributes it if that CPU is
   overloaded. *)
let make_strand t ~owner ?priority ~name body =
  let s = Strand.create ~owner ?priority ~name () in
  s.Strand.coro <- Some (Coro.create body);
  s.Strand.last_cpu <- t.exec_cpu;
  enqueue t ~cpu:t.exec_cpu s;
  s

let create ?intr sim dispatcher =
  let cpus = match intr with Some i -> Intr.cpus i | None -> 1 in
  let clock = Sim.clock sim in
  let rec t =
    lazy
      (let declare name default =
         Dispatcher.declare dispatcher ~name ~owner:owner_name
           (fun s -> default (Lazy.force t) s) in
       let events = {
         block = declare "Strand.Block" default_block;
         unblock = declare "Strand.Unblock" default_unblock;
         checkpoint = declare "Strand.Checkpoint" (fun _ _ -> ());
         resume = declare "Strand.Resume" (fun _ _ -> ());
       } in
       { sim; clock; events; cpus; intr;
         queues =
           Array.init cpus (fun _ ->
             Array.init (Strand.max_priority + 1) (fun _ -> Dllist.create ()));
         queued = Array.make cpus 0;
         current = None; exec_cpu = 0; rr_cpu = 0;
         banked_count = 0; posted_count = 0;
         wake_rings =
           (let placeholder = Strand.placeholder () in
            Array.init cpus (fun _ -> Ring.create ~dummy:placeholder 8));
         wake_actions = Array.make cpus ignore;
         slice_start = 0; preempt_requested = false;
         chooser = None;
         probe = None; on_violation = None;
         stats =
           { switches = 0; preemptions = 0; completed = 0; failed = 0;
             redundant_unblocks = 0; dead_unblocks = 0; steals = 0;
             ipi_wakeups = 0; ipi_dropped = 0 } }) in
  let t = Lazy.force t in
  for cpu = 0 to cpus - 1 do
    t.wake_actions.(cpu) <- (fun () ->
      deliver_ipi_wakeup t ~cpu (Ring.take t.wake_rings.(cpu)))
  done;
  (* Quantum accounting: request preemption when the slice expires. *)
  Clock.add_hook clock (fun clock ->
    match t.current with
    | Some s when s.Strand.state = Strand.Running
               && Clock.now clock - t.slice_start >= quantum ->
      t.preempt_requested <- true
    | Some _ | None -> ());
  (* Asynchronous dispatcher handlers run on fresh kernel strands,
     uncharged. *)
  Dispatcher.set_async_spawn dispatcher (fun thunk ->
    ignore (make_strand t ~owner:owner_name ~name:"async-handler" thunk));
  t

let events t = t.events

let sim t = t.sim

let clock t = t.clock

let ncpus t = t.cpus

let spawn t ?(owner = owner_name) ?priority ~name body =
  Clock.charge t.clock (Clock.cost t.clock).Cost.strand_spawn;
  make_strand t ~owner ?priority ~name body

let current t = t.current

let self t =
  match t.current with
  | Some s -> s
  | None -> invalid_arg "Sched.self: not in strand context"

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

(* Top level, not a local [let rec]: a closure over [t] would be
   allocated at every scheduling point. The answer is the popped node,
   in the option the queue held. *)
let rec scan_from t ~cpu p =
  if p < 0 then None
  else
    match Dllist.pop_front t.queues.(cpu).(p) with
    | Some n as popped ->
      t.queued.(cpu) <- t.queued.(cpu) - 1;
      if (Dllist.value n).Strand.state = Strand.Runnable then popped
      else scan_from t ~cpu p
    | None -> scan_from t ~cpu (p - 1)

let scan t ~cpu = scan_from t ~cpu Strand.max_priority

(* The chooser's answer, checked against the [n] candidates offered. *)
let choose f kind n =
  let i = f kind n in
  if i < 0 || i >= n then invalid_arg "Sched: chooser index out of range";
  i

(* --- candidate walks ----------------------------------------------- *)

(* Whether CPU [cpu] may run [s], queued on CPU [c]: any runnable strand
   of its own queue, and from another CPU's only one not pinned
   elsewhere. *)
let offered ~cpu c s =
  s.Strand.state = Strand.Runnable
  && (cpu = c
      || match s.Strand.affinity with None -> true | Some a -> a = cpu)

(* The victim after [c] in steal order, [-1] after the last (start
   from [-1]): CPUs other than the thief holding at least two strands
   (never the victim's last — a lone strand keeps its cache locality),
   most queued first, ties to the lower index. *)
let next_victim t ~thief c =
  let q = if c < 0 then max_int else t.queued.(c) in
  let best = ref (-1) in
  for v = t.cpus - 1 downto 0 do
    let qv = t.queued.(v) in
    if v <> thief && qv >= 2 && (qv < q || (qv = q && v > c))
       && (!best < 0 || qv >= t.queued.(!best))
    then best := v
  done;
  !best

(* The candidates CPU [cpu] is offered, walked in place from [node] in
   priority [p] of CPU [c]'s queues: from its own queue ([c = cpu]) its
   runnable strands in scan order, highest priority first and FIFO
   within a level; otherwise what it may steal, victim after victim.
   A walk starts above the top level ([p = top], no node). [nth]
   answers with the queue's own option, so neither walk allocates. *)
let top = Strand.max_priority + 1

let rec nth t ~cpu c i p node =
  match node with
  | Some n ->
    if not (offered ~cpu c (Dllist.value n)) then
      nth t ~cpu c i p (Dllist.next n)
    else if i = 0 then node
    else nth t ~cpu c (i - 1) p (Dllist.next n)
  | None when p > 0 ->
    nth t ~cpu c i (p - 1) (Dllist.first t.queues.(c).(p - 1))
  | None ->
    let c = if c = cpu then -1 else next_victim t ~thief:cpu c in
    if c < 0 then None else nth t ~cpu c i top None

let rec count t ~cpu c k p node =
  match node with
  | Some n ->
    let k = if offered ~cpu c (Dllist.value n) then k + 1 else k in
    count t ~cpu c k p (Dllist.next n)
  | None when p > 0 ->
    count t ~cpu c k (p - 1) (Dllist.first t.queues.(c).(p - 1))
  | None ->
    let c = if c = cpu then -1 else next_victim t ~thief:cpu c in
    if c < 0 then k else count t ~cpu c k top None

(* The next strand's node, unlinked. A chosen strand is unlinked alone:
   pruning stale entries here would change the queued counts, and so
   every later choice. *)
let next_runnable t ~cpu =
  match t.chooser with
  | None -> scan t ~cpu
  | Some f ->
    (match count t ~cpu cpu 0 top None with
     | 0 -> scan t ~cpu                   (* prunes any stale entries *)
     | n ->
       (match nth t ~cpu cpu (choose f Strand n) top None with
        | Some node as chosen -> dequeue t (Dllist.value node); chosen
        | None -> None))

(* --- work stealing ------------------------------------------------- *)

let stealable_nth t ~thief i =
  let v = next_victim t ~thief (-1) in
  if v < 0 then None
  else Option.map Dllist.value (nth t ~cpu:thief v i top None)

(* The default takes candidate 0, the longest-waiting urgent strand of
   the most overloaded CPU; a chooser is offered one more index than
   there are candidates, and index 0 declines. *)
let try_steal t ~thief =
  let v = next_victim t ~thief (-1) in
  if v >= 0 then
    let i =
      match t.chooser with
      | None -> 0
      | Some f ->
        (match count t ~cpu:thief v 0 top None with
         | 0 -> -1
         | n -> choose f Steal (n + 1) - 1) in
    if i >= 0 then
      match nth t ~cpu:thief v i top None with
      | Some node ->
        let s = Dllist.value node in
        dequeue t s;
        enqueue t ~cpu:thief s;
        t.stats.steals <- t.stats.steals + 1
      | None -> ()

(* Whether some CPU at or after [c] holds at least two strands — the
   only state in which a thief can find a victim. *)
let rec surplus_from t c =
  c < t.cpus && (t.queued.(c) >= 2 || surplus_from t (c + 1))

(* Idle-time balancing, run at every scheduling point: each CPU with
   an empty queue pulls at most one strand. *)
let rebalance t =
  if t.cpus > 1 && surplus_from t 0 then
    for thief = 0 to t.cpus - 1 do
      if t.queued.(thief) = 0 then try_steal t ~thief
    done

(* --- dispatch ------------------------------------------------------ *)

(* Top level, not a local [let rec]: a closure over [t] and [s] would
   be allocated at every strand's death. *)
let rec wake_joiners t q =
  match Dllist.pop_front q with
  | None -> ()
  | Some j ->
    Dispatcher.raise_default t.events.unblock () (Dllist.value j);
    wake_joiners t q

let finish t s outcome =
  (* The strand is leaving for good: unlink it from the run queue (a
     block/unblock race while it ran can leave it queued) and drop any
     raced wakeup or in-flight wakeup IPI, or the queue retains a dead
     strand and the counts a wakeup that never lands. *)
  dequeue t s;
  clear_flag t s banked;
  clear_flag t s posted;
  s.Strand.state <- Strand.Dead;
  (match outcome with
   | Coro.Failed e ->
     s.Strand.failure <- Some e;
     t.stats.failed <- t.stats.failed + 1
   | Coro.Done -> t.stats.completed <- t.stats.completed + 1
   | Coro.Suspended _ -> assert false);
  (* Capability dies with the strand, if it was ever minted. *)
  (match s.Strand.cap with
   | Some cap -> Spin_core.Capability.revoke cap
   | None -> ());
  wake_joiners t s.Strand.joiners

let execute t ~cpu s =
  let cost = Clock.cost t.clock in
  Clock.charge t.clock (cost.Cost.context_switch + cost.Cost.switch_extra);
  t.stats.switches <- t.stats.switches + 1;
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
  t.current <- s.Strand.me;
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
    clear_flag t s banked;
    if s.Strand.state = Strand.Running then enqueue t ~cpu:(target_cpu t s) s
    (* else: someone blocked it while it was being preempted *)
  | Coro.Suspended Coro.Blocked ->
    if flagged s banked then begin
      (* A wakeup raced the suspension: resume immediately. *)
      clear_flag t s banked;
      enqueue t ~cpu:(target_cpu t s) s
    end else if s.Strand.state = Strand.Running then
      s.Strand.state <- Strand.Blocked

(* The first CPU at or after [c] with queued work; [t.cpus] if none. *)
let rec busy_from t c =
  if c >= t.cpus || t.queued.(c) > 0 then c else busy_from t (c + 1)

(* The [i]th busy CPU at or after [c], ascending; and how many there
   are from [c] on. *)
let rec nth_busy t c i =
  let c = busy_from t c in
  if i = 0 || c >= t.cpus then c else nth_busy t (c + 1) (i - 1)

let rec busy_count t c =
  let c = busy_from t c in
  if c >= t.cpus then 0 else 1 + busy_count t (c + 1)

(* Only two or more busy CPUs are a choice: the chooser is asked only
   then. [-1] when no CPU has work. *)
let pick_cpu t =
  let first = busy_from t 0 in
  if first >= t.cpus then -1
  else if busy_from t (first + 1) >= t.cpus then first
  else begin
    let c =
      match t.chooser with
      | None ->
        (* First busy CPU at or after the round-robin cursor, wrapping. *)
        let c = busy_from t t.rr_cpu in
        if c < t.cpus then c else first
      | Some f -> nth_busy t 0 (choose f Cpu (busy_count t 0)) in
    t.rr_cpu <- (c + 1) mod t.cpus;
    c
  end

let drain_all_ipis t =
  match t.intr with
  | None -> ()
  | Some intr ->
    for c = 0 to t.cpus - 1 do
      ignore (Intr.drain_ipis intr ~cpu:c)
    done

let rec try_pick t =
  let cpu = pick_cpu t in
  if cpu < 0 then false
  else
    match next_runnable t ~cpu with
    | None -> try_pick t                  (* queue held only stale entries *)
    | Some n ->
      let s = Dllist.value n in
      (* Wall-clock concurrency: every other CPU with queued work runs
         its own slice during this one, so work cycles charged here
         advance wall time at 1/K. *)
      let busy = ref 1 in
      for c = 0 to t.cpus - 1 do
        if c <> cpu && t.queued.(c) > 0 then incr busy
      done;
      Clock.set_parallel t.clock !busy;
      (match execute t ~cpu s with
       | () -> Clock.set_parallel t.clock 1
       | exception e -> Clock.set_parallel t.clock 1; raise e);
      true

let step t =
  (* Scheduling point. Deliver pending IPIs first — every CPU is at an
     instruction boundary between slices — so checkers observe the
     quiescent state with no wakeup half-travelled, then let idle CPUs
     steal, then pick the CPU (and strand) to advance. *)
  drain_all_ipis t;
  (match t.probe with Some f -> f () | None -> ());
  rebalance t;
  try_pick t

let run t =
  let rec loop () =
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

(* The strand's own timer, built at its first sleep. *)
let timer t s =
  match s.Strand.timer with
  | Some tm -> tm
  | None ->
    let wake () = unblock t s in
    let tm = { Strand.event = Sim.timer t.sim; wake } in
    s.Strand.timer <- Some tm;
    tm

let sleep_us t us =
  let s = self t in
  let delta = Cost.us_to_cycles (Clock.cost t.clock) us in
  let deadline = Clock.now t.clock + delta in
  let tm = timer t s in
  Sim.arm t.sim tm.Strand.event delta tm.Strand.wake;
  (* Tolerate spurious wakeups: sleep again until the deadline. *)
  while Clock.now t.clock < deadline do
    block_current t
  done;
  (* A spurious wakeup whose resumption costs carry the clock past the
     deadline exits the loop with the timer still pending; cancel it
     so it cannot fire at [s] after [s] has moved on (or died). *)
  Sim.cancel t.sim tm.Strand.event

let preempt_point t =
  if t.preempt_requested then begin
    match t.current with
    | Some _ ->
      t.stats.preemptions <- t.stats.preemptions + 1;
      t.preempt_requested <- false;
      Coro.suspend Coro.Yielded
    | None -> t.preempt_requested <- false
  end

let set_priority t s priority =
  if priority < 0 || priority > Strand.max_priority then
    invalid_arg "Sched.set_priority: out of range";
  if s.Strand.state = Strand.Runnable
     && Dllist.is_linked (Strand.run_node s) then begin
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
    when s.Strand.state = Strand.Runnable
         && Dllist.is_linked (Strand.run_node s) && s.Strand.qcpu <> c ->
    dequeue t s;
    enqueue t ~cpu:c s
  | Some _ | None -> ()

let stats t = { t.stats with switches = t.stats.switches }

let runnable_count t =
  let n = ref 0 in
  for cpu = 0 to t.cpus - 1 do
    n := !n + t.queued.(cpu)
  done;
  !n

(* Extension points for schedule exploration (Sched_fuzz) and
   replacement policies. *)

let set_chooser t f = t.chooser <- f

let set_schedule_probe t probe = t.probe <- probe

let set_violation_hook t hook = t.on_violation <- hook

let request_preempt t = t.preempt_requested <- true

let pending_wakeup_count t = t.banked_count

let pending_ipi_count t = t.posted_count

let ipis_undelivered t =
  match t.intr with Some intr -> Intr.ipis_pending intr | None -> 0

let audit t report =
  (* Run-queue membership: every queued strand is Runnable and queued
     through its own run-queue node, on the CPU its [qcpu] claims (and
     its pinned CPU if any), no strand is queued twice machine-wide,
     and each CPU's queued count equals its queue lengths. *)
  let seen = Hashtbl.create 16 in
  Array.iteri
    (fun cpu per_prio ->
      Array.iteri
        (fun p q ->
          let rec walk = function
            | None -> ()
            | Some n ->
              let s = Dllist.value n in
              if Hashtbl.mem seen s.Strand.id then
                report
                  (Printf.sprintf "strand %s queued twice" (Strand.to_string s));
              Hashtbl.replace seen s.Strand.id ();
              if s.Strand.state <> Strand.Runnable then
                report (Printf.sprintf "%s strand %s in run queue"
                          (Strand.state_to_string s.Strand.state)
                          (Strand.to_string s));
              if n != Strand.run_node s then
                report (Printf.sprintf "strand %s queued through a foreign node"
                          (Strand.to_string s));
              if s.Strand.priority <> p then
                report (Printf.sprintf "strand %s queued at priority %d"
                          (Strand.to_string s) p);
              if s.Strand.qcpu <> cpu then
                report (Printf.sprintf "strand %s queued on CPU %d, qcpu says %d"
                          (Strand.to_string s) cpu s.Strand.qcpu);
              (match s.Strand.affinity with
               | Some a when a <> cpu ->
                 report (Printf.sprintf "strand %s pinned to CPU %d queued on %d"
                           (Strand.to_string s) a cpu)
               | Some _ | None -> ());
              if Option.is_none t.current && flagged s banked then
                report (Printf.sprintf
                          "stale pending wakeup for strand id %d at scheduling point"
                          s.Strand.id);
              walk (Dllist.next n) in
          walk (Dllist.first q))
        per_prio;
      (* The O(1) load count every scheduling point reads. *)
      let len = Array.fold_left (fun n q -> n + Dllist.length q) 0 per_prio in
      if t.queued.(cpu) <> len then
        report (Printf.sprintf "CPU %d queued count %d, its queues hold %d"
                  cpu t.queued.(cpu) len))
    t.queues;
  (* A raced wakeup is banked only on the strand being run, and its
     slice's end consumes it: with no strand running, a banked wakeup
     is a leak. The walk above names a queued culprit; a blocked one
     shows in the count alone. *)
  (match t.current with
   | Some _ -> ()
   | None when t.banked_count = 0 -> ()
   | None ->
     report (Printf.sprintf "%d stale pending wakeup(s) at scheduling point"
               t.banked_count));
  (* Every wakeup-in-flight flag must be backed by its strand in a wake
     ring, and every ring entry by an IPI in an inbox. With the inboxes
     drained, a surviving entry or flag means a wakeup was marked but
     never delivered — a lost wakeup in the making. *)
  let marked = ref 0 in
  Array.iter (Ring.iter (fun s -> if flagged s posted then incr marked))
    t.wake_rings;
  if !marked <> t.posted_count then
    report (Printf.sprintf "%d wakeup marker(s), %d marked strand(s) in the \
                            wake rings" t.posted_count !marked);
  match t.intr with
  | Some intr when Intr.ipis_pending intr = 0 ->
    Array.iter
      (Ring.iter (fun s ->
         report (Printf.sprintf
                   "wakeup marker for strand id %d with no IPI in flight"
                   s.Strand.id)))
      t.wake_rings
  | Some _ | None -> ()

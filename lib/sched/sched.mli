(** The global scheduler: round-robin, preemptive, priority (paper,
    section 4.2) — per-CPU on multiprocessors.

    Control flow is expressed as dispatcher events on strands:
    - [Strand.Block] / [Strand.Unblock] signal run-state changes and
      may be raised by drivers and interrupt handlers;
    - [Strand.Checkpoint] / [Strand.Resume] are raised around every
      context switch so thread packages (and application-specific
      schedulers stacked on the global one) can save and restore
      state.

    The global scheduler provides the default handlers. Other packages
    install additional handlers, but only for strands whose capability
    they hold: installations are guarded so a handler never sees
    another package's strands.

    Preemption: a clock hook requests rescheduling once the running
    strand exhausts its quantum; the strand yields at its next
    preemption point (every block/yield/synchronization operation is
    one, and long-running kernel code calls {!preempt_point}).

    {2 The SMP model}

    With more than one CPU (an [~intr] routing several) each CPU
    owns a private run queue; the ownership discipline is that {e no
    CPU ever mutates another CPU's queue from its own context}:

    - an unblock whose target strand belongs on another CPU posts a
      wakeup IPI through {!Spin_machine.Intr} instead of enqueueing
      remotely; the target CPU delivers it at its next scheduling
      point and does its own enqueue;
    - an idle CPU acquires work through the steal path at a scheduling
      point (when no strand is mid-slice anywhere), taking one strand
      from a CPU with at least two queued — never a lone strand, and
      never one pinned elsewhere ({!set_affinity});
    - unpinned wakeups return a strand to the CPU it last ran on
      (cache locality); spawns start children on the spawner's CPU.

    Execution remains host-serial — one strand actually runs at a
    time — but wall-clock time models the concurrency: while K CPUs
    have work, charged work cycles advance the shared clock at 1/K
    ({!Spin_machine.Clock.set_parallel}). With one CPU every SMP path
    degenerates to the exact single-CPU behaviour, cycle for cycle. *)

type t
(** A scheduler instance (one per kernel; it owns all the machine's
    CPUs' run queues). *)

type events = {
  block : (Strand.t, unit) Spin_core.Dispatcher.event;
  unblock : (Strand.t, unit) Spin_core.Dispatcher.event;
  checkpoint : (Strand.t, unit) Spin_core.Dispatcher.event;
  resume : (Strand.t, unit) Spin_core.Dispatcher.event;
}
(** The strand events this scheduler declares on its dispatcher. *)

val create :
  ?intr:Spin_machine.Intr.t ->
  Spin_machine.Sim.t -> Spin_core.Dispatcher.t -> t
(** Declares the strand events on the dispatcher and installs itself
    as their default implementation; also installs the dispatcher's
    asynchronous-handler spawn hook.

    The scheduler runs one CPU per CPU [intr] routes, and carries
    cross-CPU wakeups through it; without [intr] it runs one CPU. *)

val events : t -> events

val sim : t -> Spin_machine.Sim.t
(** The event queue this scheduler idles against. *)

val clock : t -> Spin_machine.Clock.t
(** The machine clock (shared by all CPUs). *)

val ncpus : t -> int
(** How many CPUs this scheduler multiplexes. *)

val spawn :
  t -> ?owner:string -> ?priority:int -> name:string -> (unit -> unit) ->
  Strand.t
(** Creates a kernel strand running the given body and enqueues it on
    the spawning CPU (children inherit locality; stealing spreads them
    when the CPU is overloaded). *)

val current : t -> Strand.t option
(** The strand currently running a slice, if any (host-serial: at most
    one machine-wide, whatever the CPU count). *)

val self : t -> Strand.t
(** Raises [Invalid_argument] outside strand context. *)

val step : t -> bool
(** One scheduling point: deliver pending IPIs on every CPU, let idle
    CPUs steal, pick a CPU with work (round-robin, or the installed
    {!set_chooser}) and execute one slice of its next strand; [false]
    when no CPU has work (multi-kernel co-simulation interleaves via
    [step]). *)

val run : t -> unit
(** Executes runnable strands (idling the simulated clock forward when
    none is runnable but device events are pending) until both the run
    queues and the event queue drain. Because {!step} drains IPI inboxes first, the
    loop cannot terminate with a wakeup still in flight. *)

val yield : t -> unit
(** From within a strand: give up the processor, stay runnable. *)

val block_current : t -> unit
(** From within a strand: raise [Block] on self and suspend until
    someone raises [Unblock]. *)

val block : t -> Strand.t -> unit
(** Raise [Block] on any strand (drivers use this). Blocking the
    running strand from outside marks it; it stops at its next
    preemption point. *)

val unblock : t -> Strand.t -> unit
(** Raise [Unblock]: a blocked (or newly created) strand becomes
    runnable. Safe from interrupt handlers. On a multiprocessor, a
    wakeup targeting another CPU travels as an IPI and the strand
    becomes runnable when that CPU delivers it; at most one wakeup IPI
    is in flight per strand (further unblocks meanwhile are counted
    redundant), and a strand that dies first has its late IPI dropped
    silently. *)

val checkpoint_notify : t -> Strand.t -> unit
(** Raise [Strand.Checkpoint] explicitly — the scheduler raises it
    after every slice; a hot swap ({!Spin.Swap}) raises it before
    checkpointing the outgoing extension so per-strand state
    externalizers run one last time. *)

val resume_notify : t -> Strand.t -> unit
(** Raise [Strand.Resume] explicitly (the swap-commit counterpart of
    {!checkpoint_notify}). *)

val sleep_us : t -> float -> unit
(** Block the current strand for the given virtual duration. *)

val preempt_point : t -> unit
(** Yield iff preemption was requested (quantum expiry or a
    higher-priority wakeup). Cheap. *)

val set_priority : t -> Strand.t -> int -> unit
(** Change a strand's priority (0..{!Strand.max_priority}), requeueing
    it if runnable. *)

val set_affinity : t -> Strand.t -> int option -> unit
(** Pin a strand to a CPU (or unpin with [None]). A pinned strand is
    only ever enqueued on its CPU and is exempt from stealing; a
    runnable strand moves immediately. Raises [Invalid_argument] for a
    CPU the scheduler does not own. *)

type stats = {
  mutable switches : int;     (** context switches (slices started) *)
  mutable preemptions : int;  (** involuntary yields at preemption points *)
  mutable completed : int;    (** strand bodies that returned *)
  mutable failed : int;       (** strand bodies that raised *)
  mutable redundant_unblocks : int;
      (** unblocks of already-runnable strands, or unblocks satisfied
          by a wakeup IPI already in flight (benign, but noisy wakeup
          protocols show up here) *)
  mutable dead_unblocks : int;
      (** unblocks of dead strands — a strand reference kept past its
          lifetime (also reported through the violation hook) *)
  mutable steals : int;
      (** strands migrated to an idle CPU by the steal path *)
  mutable ipi_wakeups : int;
      (** wakeups that travelled cross-CPU as IPIs *)
  mutable ipi_dropped : int;
      (** wakeup IPIs delivered after their strand finished — correct
          to drop, counted for the curious *)
}

val stats : t -> stats

val runnable_count : t -> int
(** Strands in run queues, summed across every CPU (counts nodes, so a
    transiently stale entry is included until pruned). *)

val pending_ipi_count : t -> int
(** Strands with a wakeup IPI posted but not yet delivered. Non-zero
    after {!run} drains means a cross-CPU wakeup was lost. *)

val ipis_undelivered : t -> int
(** IPIs sitting in the interrupt controller's inboxes (0 without an
    [intr]); the transport-level view of {!pending_ipi_count}. *)

val pending_wakeup_count : t -> int
(** Wakeups banked for strands that had not blocked yet. Non-zero
    after {!run} drains means a wakeup raced its strand and leaked. *)

(** {2 Schedule exploration and invariant checking}

    The paper's replaceable-scheduler interface (section 5.2), plus
    the probes {!Sched_fuzz} uses to explore interleavings and check
    concurrency invariants. All hooks charge no virtual cycles and
    default to [None], so an un-instrumented kernel behaves (and
    costs) exactly as before. *)

type choice =
  | Strand  (** which runnable strand the scheduled CPU runs *)
  | Cpu     (** which CPU with work advances *)
  | Steal   (** whether an idle CPU steals, and what *)

val set_chooser : t -> (choice -> int -> int) option -> unit
(** Installs (or clears) a replacement scheduling policy. [f kind n]
    answers an index in [\[0, n)] into the candidates the scheduler's
    own walk offers, and is asked only where there is a choice:
    - [Strand]: the scheduled CPU's runnable strands in default scan
      order (highest priority first, FIFO within a level), when it has
      at least one;
    - [Cpu]: the CPUs with queued work, ascending, when two or more
      have some;
    - [Steal]: for an idle CPU, index 0 declines and [i] takes the
      [(i-1)]th strand of {!stealable_nth}'s order, when it offers at
      least one.
    Without a chooser each answer is the default: the scan's head, the
    round-robin rotor, and candidate 0. On one CPU only [Strand] is
    ever asked. An index out of range raises [Invalid_argument]. *)

val stealable_nth : t -> thief:int -> int -> Strand.t option
(** The [i]th strand (from 0) an idle [thief] may steal: from CPUs
    other than [thief] holding at least two strands, most queued
    first (ties to the lower index), each victim's runnable strands
    not pinned elsewhere, in scan order. Candidate 0 is the default
    steal: the longest-waiting urgent strand of the most loaded CPU. *)

val runnable_strands : t -> Strand.t list
(** The machine-wide runnable set: highest priority first, CPUs in
    index order within a level, FIFO within a CPU. On one CPU this is
    exactly the set a [Strand] choice indexes. *)

val set_schedule_probe : t -> (unit -> unit) option -> unit
(** Runs at every scheduling point, after IPI delivery and before the
    next strand is chosen (so no strand is running and no wakeup is in
    flight when it fires): the place to run {!audit}-style checkers
    during fuzzing. *)

val set_violation_hook : t -> (string -> unit) option -> unit
(** Sink for scheduler invariant breaks: double enqueue, an unblock
    raised on a dead strand. *)

val request_preempt : t -> unit
(** Flags the running strand for preemption at its next preemption
    point — what the quantum-expiry clock hook does; the fuzzer calls
    it from its own clock hook to force switches at charge
    boundaries. *)

val audit : t -> (string -> unit) -> unit
(** Structural invariant sweep across every CPU's queues: run-queue
    membership (queued strands are Runnable, linked, at their own
    priority, on the CPU their [qcpu] — and pinned affinity, if any —
    says, and queued once machine-wide), each CPU's queued count (the
    O(1) load every scheduling point reads) against the sum of its
    queue lengths, pending-wakeup staleness at
    quiescent points, and wakeup-IPI markers with no IPI in flight.
    Reports each violation; cheap enough to run after every test. *)

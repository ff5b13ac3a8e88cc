(** Deterministic schedule fuzzing with seeded replay.

    The whole simulation is virtual-time deterministic, so the only
    nondeterminism worth exploring is the schedule itself. This module
    explores it the way the paper replaces the global scheduler
    (section 5.2): it installs a {!Sched.set_chooser} closure that
    answers every scheduling choice — the next runnable strand, and on
    a multiprocessor which CPU advances and whether (and what) an idle
    CPU steals — with a seeded PRNG draw in scheduling order, and a
    clock hook that forces preemption at random
    {!Spin_machine.Clock.charge} boundaries, so every charged
    instruction is a potential interrupt point. A decision is just
    the choice, the candidate count and the index drawn.

    A seed fully names a schedule — including the CPU interleaving:
    running the same workload under the same seed replays the
    identical interleaving (and the identical trace), so a failing
    seed from a fuzzing campaign is a deterministic regression test.
    On one CPU the scheduler never asks for a CPU or a steal, so
    single-CPU seeds draw exactly the sequence they always did.

    While fuzzing, invariant checkers run at every scheduling point:
    - run-queue membership, double-enqueue, per-CPU queue/affinity
      consistency, and stale wakeup-IPI markers ({!Sched.audit}, plus
      the scheduler's violation hook);
    - dispatcher handler-list structure — inactive handlers lingering,
      index counts, in-flight balance
      ({!Spin_core.Dispatcher.audit});
    - at quiescence: lost wakeups (a strand blocked with nothing left
      to wake it), undelivered wakeup IPIs (the cross-CPU lost
      wakeup), and trap entry/exit balance on every CPU
      ({!Spin_machine.Cpu.trap_stats}). *)

type t
(** One attached fuzzer (attach one per kernel, freshly built per
    seed). *)

val attach :
  cpus:Spin_machine.Cpu.t list ->
  dispatcher:Spin_core.Dispatcher.t ->
  ?mean_period:int ->
  seed:int ->
  Sched.t -> t
(** Installs the fuzzing scheduler and checkers on a kernel. [cpus]
    are the processors whose trap balance is checked (pass every CPU
    of a multiprocessor); [dispatcher] is the kernel's dispatcher,
    whose handler lists are audited. [mean_period] is the average gap, in
    cycles, between injected preemptions (default 2000 — about 25
    forced switches per default quantum). *)

val detach : t -> unit
(** Uninstalls the chooser, probes, violation hooks, and tracking
    handlers. The kernel reverts to the default scheduler with zero
    virtual-time impact (the remaining clock hook reads one flag and
    charges nothing). *)

val check_quiescence : ?exempt:(Strand.t -> bool) -> t -> unit
(** Run after {!Sched.run} drains: audits the scheduler and
    dispatcher, reports any wakeup IPI never delivered (by marker
    count and by inbox count — in-flight work the run-queue sum cannot
    see), reports any non-exempt strand still blocked with no pending
    simulator event (a lost wakeup), and checks trap accounting
    balance on every registered CPU. [exempt] marks daemon strands
    that block forever by design. *)

type stats = {
  seed : int;
  mutable decisions : int;  (** strand choices *)
  mutable cpu_decisions : int;
      (** CPU-interleaving and steal choices (0 on one CPU) *)
  mutable injected_preempts : int;
      (** preemptions forced at charge boundaries *)
  mutable violations : int;
}

val stats : t -> stats

val violations : t -> string list
(** Chronological violation reports (capped at 100; {!stats} has the
    true count), each prefixed with the virtual cycle it fired at. *)

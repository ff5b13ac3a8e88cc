(** The interrupt controller.

    Devices post interrupts on numbered lines; a posted line runs its
    registered handler immediately (charging entry/exit costs) unless
    interrupts are masked, in which case it is latched and delivered
    on unmask.

    On a multi-CPU machine the controller also routes {e interprocessor
    interrupts} (IPIs): a CPU posts a deferred action to a specific
    target CPU's inbox — the cross-CPU signalling path the scheduler
    uses for remote wakeups and the MMU for TLB shootdown, instead of
    letting one CPU mutate another's private state directly.

    {2 IPI ordering guarantees}

    - {!post_ipi} is asynchronous: the send cost is charged at the
      post, but the action runs only when the target CPU next drains
      its inbox ({!drain_ipis} — the scheduler calls it for every CPU
      at every scheduling point, modelling delivery at the next
      instruction boundary).
    - IPIs to the {e same} target are delivered in FIFO post order.
      No order is guaranteed between different targets.
    - {!broadcast_sync} is synchronous: it runs the action on every
      other CPU before returning, charging the full send/deliver
      round-trip per target — the initiator-spins-for-acks discipline
      of TLB shootdown.
    - IPI actions run in interrupt context (further interrupts are
      masked while one runs). *)

type t

val create : ?cpus:int -> Clock.t -> t
(** [create ?cpus clock] builds the controller; [cpus] (default 1)
    sizes the per-CPU IPI inboxes. *)

val cpus : t -> int
(** The number of CPUs the controller routes IPIs between. *)

val set_active_cpu : t -> int -> unit
(** Records which CPU the (host-serial) simulation is currently
    executing on. The scheduler calls this as it dispatches strands;
    it is the simulation's stand-in for per-CPU "whoami". *)

val active_cpu : t -> int
(** The CPU currently executing (0 on a uniprocessor, and between
    scheduler dispatches). Kernel services use it as the [from] CPU
    when addressing shootdowns and remote wakeups. *)

val register : t -> line:int -> (unit -> unit) -> unit
(** Replaces any previous handler on [line]. *)

val post : t -> line:int -> unit
(** Raises the line. Unhandled lines are ignored. *)

val delivered : t -> int
(** Total device-line interrupts delivered since boot. *)

(** {2 Interprocessor interrupts} *)

val post_ipi : t -> cpu:int -> (unit -> unit) -> unit
(** [post_ipi t ~cpu action] charges the IPI send cost and enqueues
    [action] on [cpu]'s inbox; it runs (in interrupt context, charging
    the deliver cost) at the target's next {!drain_ipis}. FIFO per
    target. *)

val drain_ipis : t -> cpu:int -> int
(** Delivers every IPI pending on [cpu]'s inbox, in post order, and
    returns how many ran. The scheduler calls this for each CPU at
    every scheduling point; actions posted by an action being
    delivered are drained in the same call. *)

val ipis_pending : t -> int
(** Posted-but-undelivered IPIs across all inboxes. Non-zero at
    quiescence means a cross-CPU signal was never taken — the SMP
    analogue of a lost wakeup ({!Spin_sched.Sched_fuzz} checks it). *)

val broadcast_sync : t -> from:int -> (cpu:int -> unit) -> int
(** [broadcast_sync t ~from action] synchronously runs [action ~cpu]
    on every CPU except [from], charging the send and deliver costs
    per target, and returns the number of targets. This is the TLB
    shootdown discipline: the initiator does not proceed until every
    other CPU has taken the flush and acknowledged. *)

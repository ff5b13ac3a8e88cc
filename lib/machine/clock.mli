(** The virtual cycle counter.

    Every simulated activity advances a single global-per-machine
    clock by charging cycles. Components (the discrete-event queue,
    the preemptive scheduler) register advance hooks that run after
    each charge; hooks are not re-entered while one is running, which
    lets a hook's own work charge cycles safely. *)

type t

val create : Cost.t -> t

val cost : t -> Cost.t

val now : t -> int
(** Current virtual time in cycles since boot. *)

val now_us : t -> float

val charge : t -> int -> unit
(** [charge t c] accounts [c >= 0] cycles of CPU work, advancing wall
    time by [c / parallel] (see {!set_parallel}; the remainder is
    carried so no work is lost), then runs hooks when time advanced.
    On a uniprocessor ([parallel = 1]) this is exactly
    [now <- now + c]. *)

val set_parallel : t -> int -> unit
(** [set_parallel t k] declares that [k >= 1] CPUs are concurrently
    busy: until changed, each charged work cycle advances wall time by
    [1/k] cycles. The SMP scheduler calls this at slice boundaries with
    the number of CPUs that have a strand to run — work charged while
    other CPUs also compute overlaps with theirs in wall time, which is
    what makes throughput (work per wall second) scale. Deadlines,
    hooks and {!now} all remain in wall time. *)

val skip_to : t -> int -> unit
(** [skip_to t cycles] advances directly to an absolute time (used when
    the machine is idle until the next scheduled event). No-op if the
    target is in the past. *)

val idle_cycles : t -> int
(** Cycles skipped while idle since boot; [now - idle_cycles] is the
    busy time, from which CPU utilization is computed (the paper's
    low-priority idle thread, measured exactly). *)

val add_hook : t -> (t -> unit) -> unit
(** [add_hook t f] runs [f t] after every advance (charge or skip). *)

val stamp : t -> (unit -> unit) -> int
(** [stamp t f] runs [f] and returns the cycles it consumed. *)

type tracer = ..
(** The per-clock slot {!Trace.of_clock} keeps the clock's tracer in,
    so the tracer lives exactly as long as its clock. *)

val tracer : t -> tracer option

val set_tracer : t -> tracer -> unit

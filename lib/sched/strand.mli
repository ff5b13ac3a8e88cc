(** Strands: the processor contexts multiplexed by schedulers.

    A strand has no requisite kernel state other than a name (paper,
    section 4.2); kernel threads attach a coroutine to theirs, while
    user-level thread packages manage bare strands. Each strand is
    protected by a capability minted at creation — schedulers demand
    it before letting an extension handle the strand's events. *)

type state = Created | Runnable | Running | Blocked | Dead
(** The run-state lifecycle. [Created] strands become [Runnable] on
    their first unblock (or at spawn); [Dead] is terminal. *)

type t = {
  id : int;                    (** unique, never reused *)
  name : string;
  owner : string;              (** the thread package managing it *)
  mutable priority : int;      (** 0..31; higher runs first *)
  mutable state : state;
  mutable coro : Coro.t option;  (** kernel context, if a kernel thread *)
  joiners : t Spin_dstruct.Dllist.t;  (** strands waiting for death *)
  mutable failure : exn option;  (** set when the body raised *)
  mutable cap : t Spin_core.Capability.t option;  (** set at creation *)
  me : t option;
  (** [Some] this strand, built once: the scheduler's [current] holds
      it, so a dispatch allocates nothing. *)
  mutable qnode : t Spin_dstruct.Dllist.node option;
  (** set at creation: the strand's one run-queue node, linked while
      the strand is queued. Owned by the scheduler; see {!run_node}. *)
  mutable wnode : t Spin_dstruct.Dllist.node option;
  (** set at the first wait: the node a thread package links into the
      one wait queue the strand blocks on; see {!wait_node}. *)
  mutable affinity : int option;
  (** pinned CPU: when set, the strand is only ever enqueued on (and
      never stolen from) this CPU — per-CPU daemons like the netisr
      protocol shards use it. [None] means the scheduler places the
      strand freely. Set it through {!Sched.set_affinity}, which
      validates the CPU number and requeues a runnable strand. *)
  mutable last_cpu : int;
  (** the CPU this strand last ran on (its spawn CPU before the first
      slice) — the scheduler's locality hint: an unpinned wakeup
      re-enqueues the strand there. Owned by the scheduler. *)
  mutable qcpu : int;
  (** which CPU's run queue [qnode] lives in; meaningful only while
      it is linked. Owned by the scheduler — only the code that links
      [qnode] may write it. *)
}

val create : owner:string -> ?priority:int -> name:string -> unit -> t
(** Default priority 16. The new strand is [Created], unqueued, with
    no affinity. *)

val run_node : t -> t Spin_dstruct.Dllist.node
(** The strand's run-queue node; the scheduler re-links it at every
    enqueue. *)

val wait_node : t -> t Spin_dstruct.Dllist.node
(** The strand's wait-queue node, built at the first call. A strand
    blocks on at most one wait queue at a time, so one node serves
    every mutex, condition and join it waits on. *)

val capability : t -> t Spin_core.Capability.t
(** The unforgeable reference guarding this strand. *)

val holds_capability : t Spin_core.Capability.t -> t -> bool
(** Does this capability designate this strand (and remain valid)? *)

val state_to_string : state -> string

val to_string : t -> string
(** ["strand#id(name,owner,pri=p,state)"] — for violation reports. *)

val max_priority : int
(** 31; priorities run 0..[max_priority]. *)

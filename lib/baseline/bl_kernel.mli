(** A baseline (non-extensible) operating system kernel model:
    DEC OSF/1 or Mach 3.0, depending on the cost table it is built
    with.

    Everything runs on the same simulated machine as SPIN — the same
    traps, MMU operations, context switches and copies — plus the
    OS-specific software layers from {!Os_costs}. The Table 2-4
    operations below *execute* their paths (real MMU changes, real
    strand switches), so they scale structurally; nothing is a single
    hard-coded total. *)

type t

val create : Os_costs.t -> name:string -> t

val machine : t -> Spin_machine.Machine.t

val stamp_us : t -> (unit -> unit) -> float
(** Virtual microseconds consumed by the thunk. *)

(* -------------------- Table 2: protected communication ------------ *)

val null_syscall : t -> unit
(** Hardware trap + the OS's generic dispatch layer. *)

val cross_address_space_call : t -> unit
(** One null cross-address-space RPC: OSF/1 goes through sockets and
    SUN RPC; Mach through its optimized message path. Both pay real
    address-space switches on the machine. *)

(* -------------------- Table 3: thread management ------------------ *)

val fork_join : t -> user:bool -> unit
(** Create, schedule and terminate one thread, synchronizing the
    termination (runs on real strands plus the OS overheads;
    [user:true] adds the user-level library layer and its
    user/kernel crossings). Must run inside {!in_kernel_thread}. *)

val ping_pong : t -> user:bool -> iters:int -> unit
(** [iters] synchronization round trips between two threads. *)

val in_kernel_thread : t -> (unit -> unit) -> unit
(** Run the thunk on a kernel thread of this OS and drive the
    simulation to completion. *)

(* -------------------- Table 4: virtual memory ---------------------- *)

val vm_setup : t -> pages:int -> unit
(** Map a fresh region of [pages] pages read-write (the benchmark
    arena). *)

val vm_protect : t -> first:int -> count:int -> writable:bool -> unit
(** Change protection from user level: syscall + generic VM layer +
    real MMU updates. Mach's lazy unprotection skips the eager MMU
    work. *)

val vm_fault_total : t -> unit
(** The "Fault" row: take a write fault on a protected page, deliver
    it to a user handler (signal / exception message), re-enable in
    the handler, resume and retry. *)

val vm_trap_latency : t -> float
(** The "Trap" row: virtual us from fault to first user-handler
    instruction. *)

val vm_appel1 : t -> unit
(** Fault on a protected page; in the handler unprotect it and
    protect another. *)

val vm_appel2_per_page : t -> pages:int -> float
(** Protect [pages] pages, fault on each, resolving in the handler;
    returns average us per page. *)

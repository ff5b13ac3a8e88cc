(** The assembled SPIN kernel.

    [boot] builds a workstation and starts the core services on it:
    the event dispatcher, the in-kernel nameserver, the global
    scheduler, the three memory services, the kernel heap with its
    collector, and the [SpinPublic] aggregate domain that extensions
    resolve against.

    System calls follow the paper: the CPU trap handler raises the
    [Trap.SystemCall] event, which dispatches to the handler a service
    installed — application-specific system calls are just handlers
    with guards on the syscall number. *)

type t = {
  machine : Spin_machine.Machine.t;
  dispatcher : Spin_core.Dispatcher.t;
  nameserver : Spin_core.Nameserver.t;
  sched : Spin_sched.Sched.t;
  vm : Spin_vm.Vm.t;
  heap : Spin_kgc.Kheap.t;
  swap : Swap.t;
  syscall_event :
    (int * int array, int) Spin_core.Dispatcher.event;
  syscalls : (int, int array -> int) Hashtbl.t;
  mutable public : Spin_core.Kdomain.t;
  mutable extensions : Spin_core.Kdomain.t list;
}

val boot : ?cpus:int -> ?name:string -> unit -> t
(** Boots with the Strand, Translation, PhysAddr and Swap event
    interfaces already published (importable from [SpinPublic]). An
    extension handler that faults is contained by the dispatcher
    itself: caught, counted and uninstalled (section 4.3).

    [cpus] (default: the [SPIN_CPUS] environment variable or 1) boots a
    multiprocessor: the scheduler runs per-CPU queues with IPI wakeups,
    the trap handler is installed on every CPU, and TLB shootdowns are
    wired. *)

val trace : t -> Spin_machine.Trace.t
(** The kernel's tracer — the one every subsystem on this machine's
    clock records into. Disabled (and free beyond one bool check per
    site) until {!Spin_machine.Trace.enable}. *)

val elapsed_us : t -> float

val stamp_us : t -> (unit -> unit) -> float

(* -------------------- system calls -------------------------------- *)

val syscall : t -> number:int -> args:int array -> int
(** Enter the kernel from user level: hardware trap, then the
    [Trap.SystemCall] event. Unknown numbers return [-1]. *)

val register_syscall : t -> number:int -> (int array -> int) -> unit
(** Binds a number in the system call table consulted by the
    [Trap.SystemCall] handler — an application-specific system call
    (services may also install guarded handlers on the event
    directly). *)

(* -------------------- domains and extensions ---------------------- *)

val publish :
  t -> name:string ->
  ?authorize:(Spin_core.Nameserver.identity -> bool) ->
  Spin_core.Kdomain.t -> unit
(** Export an interface: register it with the nameserver and fold it
    into [SpinPublic]. *)

val load_extension :
  t -> Spin_core.Object_file.t ->
  (Spin_core.Kdomain.t, Spin_core.Kdomain.error) result
(** The paper's extension loading: create a domain from the (safe)
    object file, resolve it against [SpinPublic], run its
    initializer. *)

val extension_count : t -> int

val attach_fuzz : seed:int -> t -> Spin_sched.Sched_fuzz.t
(** Installs the schedule fuzzer ({!Spin_sched.Sched_fuzz}) on this
    kernel's scheduler, dispatcher, and CPU: random strand selection
    under the given seed, preemption injection at charge boundaries,
    and the concurrency invariant checkers. Attach to a freshly booted
    kernel, one per seed, so replaying a seed replays its schedule. *)

val run : t -> unit
(** Drive the kernel's scheduler and device events. *)

val spawn :
  t -> name:string -> (unit -> unit) -> Spin_sched.Strand.t

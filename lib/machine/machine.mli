(** A complete simulated workstation.

    [create] builds a standalone machine with its own clock and event
    queue; [create_on] builds one sharing an existing event queue so
    that several hosts can be co-simulated on a common virtual
    timeline (used by the networking experiments).

    A machine carries one or more CPUs sharing the clock, physical
    memory and MMU; [cpu] is the boot processor, [cpus] the full set.
    On a multiprocessor the machine wires {!Mmu.set_shootdown} to
    {!Intr.broadcast_sync} so every translation removal pays the TLB
    shootdown round-trip. *)

type t = {
  name : string;
  cost : Cost.t;
  clock : Clock.t;
  sim : Sim.t;
  mem : Phys_mem.t;
  mmu : Mmu.t;
  cpu : Cpu.t;                 (** the boot processor, [cpus.(0)] *)
  cpus : Cpu.t array;          (** all processors, indexed by CPU id *)
  intr : Intr.t;
  console : Console_dev.t;
  mutable next_line : int;
  mutable shootdowns : int;    (** TLB shootdown broadcasts initiated *)
  mutable shootdown_acks : int; (** remote flush acknowledgements *)
}

val create : ?mem_mb:int -> ?cpus:int -> name:string -> unit -> t
(** A machine with the 133 MHz Alpha's costs ({!Cost.alpha_133}).
    Default memory: 64 MB, as in the paper's machines. [cpus]
    defaults to the [SPIN_CPUS] environment variable when set (CI runs
    the test suite under [SPIN_CPUS=4] to exercise the SMP paths),
    otherwise 1; pass [~cpus:1] explicitly for tests with single-CPU
    golden timings. *)

val create_on : Sim.t -> ?mem_mb:int -> ?cpus:int -> name:string -> unit -> t

val set_trap_handler : t -> (Cpu.trap -> int) -> unit
(** Installs the kernel trap entry point on {e every} CPU — a trap
    must be handleable wherever the strand that takes it is running. *)

val shootdown_stats : t -> int * int
(** (broadcasts initiated, remote acks received) since boot. Acks are
    [broadcasts * (ncpus - 1)] unless a shootdown raced CPU hotplug —
    which this model does not have, so the equality is an invariant. *)

val add_disk : ?blocks:int -> t -> Disk_dev.t
(** Attaches a disk (default ~16 MB) on a fresh interrupt line. *)

val connect :
  t -> t -> kind:Nic.kind -> ?mbps:float -> unit ->
  Nic.t * Nic.t
(** [connect a b ~kind ()] gives each machine a NIC of [kind] and
    wires them with a link of the kind's line rate ([mbps] overrides
    it — experiments that must not be line-rate-bound, like the SMP
    scaling ramp, run the same device model over a faster wire). The
    machines must share a simulation (build them with {!create_on}). *)

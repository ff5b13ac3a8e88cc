(** A networking host: machine, scheduler, dispatcher and the SPIN
    protocol stack, assembled for multi-host experiments.

    Hosts sharing a simulation are wired together point-to-point with
    {!wire}; each host has one address used on all its interfaces. *)

type t = {
  machine : Spin_machine.Machine.t;
  dispatcher : Spin_core.Dispatcher.t;
  sched : Spin_sched.Sched.t;
  phys : Spin_vm.Phys_addr.t;   (** page allocation for this host's caches *)
  ip : Ip.t;
  icmp : Icmp.t;
  udp : Udp.t;
  tcp : Tcp.t;
  am : Active_msg.t;
  addr : Ip.addr;
}

val create :
  ?mem_mb:int -> ?cpus:int -> Spin_machine.Sim.t -> name:string ->
  addr:Ip.addr -> t
(** [mem_mb] bounds the host's physical memory (the [mem] pressure
    workload runs its server small). [cpus] (default: the
    [SPIN_CPUS] environment variable or 1) builds a multiprocessor
    host: per-CPU scheduling with IPI wakeups, and {!wire} shards
    receive processing across the CPUs. The host's physical address
    service comes up with the second-chance replacement policy
    installed. *)

val wire :
  ?optimized:bool -> ?mbps:float ->
  t -> t -> kind:Spin_machine.Nic.kind -> Netif.t * Netif.t
(** Gives both hosts an interface of [kind], links them, installs
    routes in both directions, and starts the protocol threads — one
    receive shard per CPU on each side. [mbps] overrides the kind's
    line rate (see {!Spin_machine.Machine.connect}). *)

val run_all : ?until:(unit -> bool) -> t list -> unit
(** Co-simulates several hosts: interleaves their schedulers on the
    shared virtual timeline until all are idle (or [until]). *)

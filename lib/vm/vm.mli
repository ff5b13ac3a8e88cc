(** The assembled virtual memory system: the three services of
    Figure 3 plus trap routing. *)

type t = {
  machine : Spin_machine.Machine.t;
  dispatcher : Spin_core.Dispatcher.t;
  phys : Phys_addr.t;
  virt : Virt_addr.t;
  trans : Translation.t;
}

val create : Spin_machine.Machine.t -> Spin_core.Dispatcher.t -> t

val handle_trap : t -> Spin_machine.Cpu.trap -> bool
(** Routes memory faults into translation events; [false] for traps
    this subsystem does not own. *)

val install_trap_handler : t -> unit
(** Standalone wiring (tests, examples without the full kernel):
    makes the CPU deliver memory faults to {!handle_trap}; unhandled
    trap kinds return [-1]. *)

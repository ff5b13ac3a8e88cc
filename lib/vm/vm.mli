(** The assembled virtual memory system: the three services of
    Figure 3 plus trap routing. *)

type t = {
  machine : Spin_machine.Machine.t;
  phys : Phys_addr.t;
  virt : Virt_addr.t;
  trans : Translation.t;
}

val create : Spin_machine.Machine.t -> Spin_core.Dispatcher.t -> t

val handle_trap : t -> Spin_machine.Cpu.trap -> bool
(** Routes memory faults into translation events; [false] for traps
    this subsystem does not own. The kernel's CPU trap handler calls
    it; standalone wiring passes it to [Machine.set_trap_handler]. *)

(** The simulated processor: modes, traps, and user-space access.

    User programs in this reproduction are OCaml closures that touch
    simulated memory through the CPU; a failed translation raises a
    trap into the registered kernel handler, after which the access is
    retried — exactly the fault/resume cycle the SPIN translation
    events are built on.

    A machine may carry several CPUs ({!Machine.create} [?cpus]); they
    share the clock, physical memory and MMU (page tables are common
    to the machine; the TLB is modelled as unified, with cross-CPU
    coherence paid for through {!Intr} shootdown IPIs — see
    {!Mmu.set_shootdown}). Each CPU keeps its own translation context,
    trap handler and trap accounting. *)

type t
(** One simulated processor. *)

type trap =
  | Syscall of { number : int; args : int array }
      (** An explicit kernel call from user code. *)
  | Mem_fault of { va : int; fault : Mmu.fault }
      (** A failed translation, delivered for fault-and-resume. *)
  | Illegal
      (** An operation the hardware cannot perform: a user access with
          no translation context installed. *)

exception Unhandled_trap of trap
(** Raised when no handler is installed, or a faulting access cannot
    be resolved after repeated retries. *)

val create : ?id:int -> Clock.t -> Mmu.t -> t
(** [create ?id clock mmu] builds a CPU. [id] (default 0) is the
    processor number — CPU 0 is the boot processor; {!Machine.create}
    numbers additional CPUs densely from 1. *)

val id : t -> int
(** The processor number, fixed at creation. The scheduler uses it to
    index per-CPU run queues and to address IPIs. *)

val set_trap_handler : t -> (trap -> int) -> unit
(** Installs the kernel's trap entry point. The handler's integer
    result is delivered as the trap's return value (syscall result). *)

type trap_stats = {
  mutable entries : int;  (** trap entries charged since boot *)
  mutable exits : int;    (** trap exits charged since boot *)
  mutable depth : int;    (** currently nested traps (0 when quiescent) *)
}

val trap_stats : t -> trap_stats
(** Entry/exit accounting for the concurrency invariant checkers:
    outside an in-flight trap, [entries = exits] must hold — an
    imbalance means some path skipped the return-from-trap charge. *)

val syscall : t -> number:int -> args:int array -> int
(** Issues a system call trap: charges entry cost, runs the handler,
    charges exit cost. Entry and exit are charged symmetrically even
    when the handler raises — the exception propagates after the
    return-from-trap cost is paid. *)

val set_context : t -> Mmu.context option -> unit
(** Switches the user translation context, charging the address-space
    switch cost when it actually changes. *)

val context : t -> Mmu.context option
(** The user translation context currently installed, if any. *)

val load_word : t -> va:int -> int64
(** User-context 8-byte load; faults are trapped and the access
    retried. Charges the per-access cost. *)

val store_word : t -> va:int -> int64 -> unit
(** User-context 8-byte store; faults are trapped and the access
    retried. Charges the per-access cost. *)

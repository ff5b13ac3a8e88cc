(** The baseline operating systems' paths: DEC OSF/1 or Mach 3.0,
    depending on the {!Os_costs} table they charge.

    They run on the same simulated machine as SPIN — the same traps,
    MMU operations, address-space switches and copies — plus the
    OS-specific software layers of {!Os_costs}. The Table 2 and 4
    paths below execute (real MMU changes, real address-space
    switches), so they scale structurally; nothing is a single
    hard-coded total. Table 3's thread operations are the bench's
    one fork-join and ping-pong workload, run with these layers'
    charges. *)

type t

val create : Os_costs.t -> Spin_machine.Machine.t -> t
(** Two processes on the machine, client and server; the client's
    space maps a 128-page read-write arena for Table 4. *)

(* -------------------- Table 2: protected communication ------------ *)

val null_syscall : Spin_machine.Clock.t -> Os_costs.t -> unit
(** Hardware trap + the OS's generic dispatch layer. *)

val cross_address_space_call : t -> unit
(** One null cross-address-space RPC: OSF/1 goes through sockets and
    SUN RPC; Mach through its optimized message path. Both pay real
    address-space switches on the machine. *)

(* -------------------- Table 4: virtual memory ---------------------- *)

val vm_protect : t -> first:int -> count:int -> writable:bool -> unit
(** Change the arena's protection from user level: syscall + generic
    VM layer + real MMU updates. Mach's lazy unprotection skips the
    eager MMU work. *)

val vm_trap : t -> unit
(** The "Trap" row: from the fault to the user handler's first
    instruction (signal / exception message). *)

val vm_fault : t -> unit
(** The "Fault" row: a write fault on a protected page delivered to a
    user handler, access re-enabled, resumed and retried. *)

val vm_appel1 : t -> unit
(** Fault on a protected page; in the handler unprotect it and
    protect another. *)

val vm_appel2 : t -> pages:int -> unit
(** Protect [pages] pages, then fault on each, resolving in the
    handler. *)

(* -------------------- Table 5: user-level endpoints ---------------- *)

val copy_cost : Spin_machine.Clock.t -> bytes:int -> int

val user_send_overhead : Spin_machine.Clock.t -> Os_costs.t -> bytes:int -> unit
(** Application send to protocol stack: syscall, copyin, socket work. *)

val user_recv_overhead : Spin_machine.Clock.t -> Os_costs.t -> bytes:int -> unit
(** Packet arrival to application: socket work, process wakeup,
    copyout, syscall return. *)

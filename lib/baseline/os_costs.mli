(** Operating-system path-length constants for the baseline models.

    These are *structural* software overheads (in cycles) layered on
    the shared hardware cost model: what a monolithic UNIX or a
    microkernel executes beyond the raw traps, copies and context
    switches that the simulated machine already charges. SPIN's own
    per-step path lengths are in {!Spin_machine.Cost}; its operation
    totals, like these systems', come from executing the paths.

    Calibration targets are the baseline columns of Tables 2-6 of the
    paper; each field names the row it was fitted to, or says "origin
    unrecorded". See EXPERIMENTS.md for the resulting numbers. *)

type t = {
  syscall_dispatch : int; (** trap-to-handler layer; Table 2, System call *)
  socket_op : int; (** socket layer per RPC leg; Table 2, Cross-AS call *)
  net_socket_send : int; (** socket work per datagram sent; Table 5 *)
  net_socket_recv : int; (** socket work per datagram delivered; Table 5 *)
  sunrpc_marshal : int; (** SUN RPC stubs per leg; Table 2, Cross-AS call *)
  message_ipc : int; (** one-way Mach message; Table 2, Cross-AS call *)
  signal_path : int; (** signal to a user handler (OSF/1); Table 4, Trap *)
  exception_msg : int; (** exception message (Mach); Table 4, Trap *)
  sigreturn : int; (** return from a fault handler; Table 4, Fault *)
  pager_reply : int; (** external-pager reply granting access; Table 4, Fault *)
  vm_layer_base : int; (** vm_map/vm_object work to start; Table 4, Prot1 *)
  vm_layer_per_page : int; (** the same, per page; Table 4, Prot100 *)
  lazy_unprotect : bool; (** Mach's lazy unprotection; Table 4, Unprot100 *)
  thread_create_extra : int; (** beyond a spawn; Table 3, kernel Fork-Join *)
  thread_sync_extra : int; (** block/wakeup per op; Table 3, kernel Ping-Pong *)
  user_fork_layer : int; (** library create/join; Table 3, user Fork-Join *)
  user_sync_layer : int; (** library sync, per op; Table 3, user Ping-Pong *)
  user_thread_syscalls : int; (** crossings per thread op; origin unrecorded *)
  process_wakeup : int; (** wake a blocked process; origin unrecorded *)
}

val osf1 : t

val mach3 : t

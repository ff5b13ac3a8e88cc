(* Calibrated against the DEC OSF/1 V2.1 and Mach 3.0 columns of the
   paper's tables on the same 133 cycles/us clock. *)

type t = {
  syscall_dispatch : int;
  socket_op : int;
  net_socket_send : int;
  net_socket_recv : int;
  sunrpc_marshal : int;
  message_ipc : int;
  signal_path : int;
  exception_msg : int;
  sigreturn : int;
  pager_reply : int;
  vm_layer_base : int;
  vm_layer_per_page : int;
  lazy_unprotect : bool;
  thread_create_extra : int;
  thread_sync_extra : int;
  user_fork_layer : int;
  user_sync_layer : int;
  user_thread_syscalls : int;
  process_wakeup : int;
}

let osf1 = {
  syscall_dispatch = 255;          (* 5 us syscall total (Table 2) *)
  socket_op = 15_800;              (* sockets + SUN RPC give 845 us *)
  net_socket_send = 4_400;         (* per-packet socket work: Table 5 *)
  net_socket_recv = 6_000;
  sunrpc_marshal = 19_500;
  message_ipc = 0;
  signal_path = 33_500;            (* 260 us fault-to-handler (Table 4) *)
  exception_msg = 0;
  sigreturn = 3_100;               (* Fault = 329 us total *)
  pager_reply = 0;
  vm_layer_base = 4_265;           (* Prot1 = 45 us *)
  vm_layer_per_page = 1_180;       (* Prot100 = 1041 us *)
  lazy_unprotect = false;
  thread_create_extra = 23_800;    (* Fork-Join 198 us (Table 3) *)
  thread_sync_extra = 70;          (* Ping-Pong 21 us *)
  user_fork_layer = 130_000;       (* P-threads fork-join: 1230 us *)
  user_sync_layer = 7_200;         (* P-threads ping-pong: 264 us *)
  user_thread_syscalls = 2;
  process_wakeup = 2_600;
}

let mach3 = {
  syscall_dispatch = 521;          (* 7 us syscall *)
  socket_op = 0;
  net_socket_send = 0;
  net_socket_recv = 0;
  sunrpc_marshal = 0;
  message_ipc = 4_600;             (* 104 us cross-address-space call *)
  signal_path = 0;
  exception_msg = 22_500;          (* 185 us fault-to-handler (Trap row) *)
  sigreturn = 2_000;
  pager_reply = 28_600;            (* Fault = 415 us via the external pager *)
  vm_layer_base = 11_300;          (* Prot1 = 106 us *)
  vm_layer_per_page = 2_100;       (* Prot100 = 1792 us *)
  lazy_unprotect = true;           (* Unprot100 = 302 us *)
  thread_create_extra = 10_870;     (* Fork-Join 101 us *)
  thread_sync_extra = 1_700;       (* Ping-Pong 71 us *)
  user_fork_layer = 29_600;        (* C-Threads fork-join: 338 us *)
  user_sync_layer = 530;           (* C-Threads ping-pong: 115 us *)
  user_thread_syscalls = 1;
  process_wakeup = 2_600;
}

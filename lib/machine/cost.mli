(** The cost table of the simulated SPIN system: every calibrated cycle
    constant, hardware and software, in one record, read through
    [Clock.cost].

    It holds the primitive costs of a 133 MHz DEC Alpha AXP 3000/400,
    as used in the paper, and the per-step path lengths of SPIN's own
    software layers. Operation totals are not in this table: they are
    composed by executing the code paths that charge these steps. The
    baseline systems' path lengths stay in [Spin_baseline.Os_costs].

    Each field names the paper row it was fitted to, or says "not
    fitted" (no paper row measures it) or "origin unrecorded" (set
    with the base operations, DESIGN.md section 2, against no recorded
    row). The fields are grouped by layer. *)

type t = {
  cycles_per_us : int; (** 133, the paper's clock rate; not fitted *)
  (* Trap. *)
  trap_entry : int; (** user->kernel switch, register save; origin unrecorded *)
  trap_exit : int; (** kernel->user return, registers; origin unrecorded *)
  syscall_glue : int; (** syscall decode + raise; Table 2, System call, SPIN *)
  (* Dispatch. *)
  proc_call : int; (** intra-module call + return; origin unrecorded *)
  cross_module_call : int;
  (** inter-module call, a [Direct] raise; Table 2, Protected in-kernel call *)
  dispatch_fixed : int; (** a [General] raise's entry; origin unrecorded *)
  guard_eval : int;
  (** evaluating one guard predicate; section 5.5, 50 false guards add
      ~20 us to the Ethernet RTT *)
  handler_invoke : int;
  (** invoking one handler beyond its body; section 5.5, 50 invoked
      handlers add ~72 us to the Ethernet RTT *)
  trusted_eval : int; (** one verified, compiled predicate; not fitted *)
  trusted_invoke : int; (** an unpoliced verified handler call; not fitted *)
  (* Sched. *)
  context_switch : int; (** switch within an address space; origin unrecorded *)
  addr_space_switch : int; (** switch + ASN/TLB work; origin unrecorded *)
  strand_spawn : int; (** creating a kernel strand; origin unrecorded *)
  switch_extra : int; (** scheduler work beyond a switch; origin unrecorded *)
  kthread_sync : int; (** a lock/unlock/signal/wait; origin unrecorded *)
  ipc_handoff : int;
  (** parking an IPC caller and running its peer, beyond the context
      switch; origin unrecorded *)
  (* VM: MMU, translation, allocators and the kernel heap. *)
  tlb_fill : int; (** PAL-code TLB fill after a miss; origin unrecorded *)
  mmu_map_op : int; (** install or remove one PTE; origin unrecorded *)
  mem_access : int; (** one load/store through the MMU; origin unrecorded *)
  tlb_shootdown : int; (** remote TLB flush + ack, per CPU; not fitted *)
  map_service : int; (** a context create, map or unmap; origin unrecorded *)
  protect_base : int; (** a protection change, fixed; Table 4, Prot1 *)
  protect_per_page : int; (** a protection change, a page; Table 4, Prot100 *)
  dirty_query : int; (** a page-state query; Table 4, Dirty *)
  fault_classify : int; (** fault decode before its event; origin unrecorded *)
  phys_alloc : int; (** one physical allocation; origin unrecorded *)
  virt_alloc : int; (** one virtual allocation; origin unrecorded *)
  alloc_fixed : int; (** kernel-heap allocation, fixed; origin unrecorded *)
  alloc_per_word : int; (** kernel-heap allocation, a word; origin unrecorded *)
  gc_pause : int; (** a collection's fixed pause; origin unrecorded *)
  gc_scan_per_word : int; (** tracing one live word; origin unrecorded *)
  gc_copy_per_word : int; (** moving one live word; origin unrecorded *)
  (* Protocol. *)
  ip_process : int; (** IP header handling per packet; origin unrecorded *)
  udp_process : int; (** UDP work per datagram; origin unrecorded *)
  tcp_process : int; (** TCP work per segment; origin unrecorded *)
  am_process : int; (** active-message work per message; origin unrecorded *)
  http_parse : int; (** HTTP request-line handling; origin unrecorded *)
  (* Copy. *)
  copy_per_word : int; (** memory-to-memory, per 8 bytes; origin unrecorded *)
  video_decompress : int; (** video decoding, per 8 bytes; origin unrecorded *)
  (* Extension: the verifier, hot swap, the video codec and IPC. *)
  ebc_verify_fixed : int; (** a verifier pass, fixed; not fitted *)
  ebc_verify_per_instr : int; (** a verifier pass, per instr.; not fitted *)
  ebc_step : int; (** one compiled instruction (bound to budget); not fitted *)
  ebc_interp_step : int; (** one interpreted instruction; not fitted *)
  swap_gate : int; (** close or reopen one event's gate; not fitted *)
  swap_sweep : int; (** evict one handler across the registry; not fitted *)
  swap_bringup : int; (** initialize + activate a replacement; not fitted *)
  mcast_patch : int; (** video multicast patch, per client; origin unrecorded *)
  ipc_leg_bookkeeping : int;
  (** the IPC extension's per-leg reference and argument checks;
      Table 2, Cross-address space call, SPIN (89 us) *)
  (* Device: interrupts, IPIs and device registers. *)
  interrupt_entry : int; (** device interrupt taken; origin unrecorded *)
  interrupt_exit : int; (** device interrupt return; origin unrecorded *)
  ipi_send : int; (** write the IPI register; not fitted *)
  ipi_deliver : int; (** remote CPU takes the IPI vector; not fitted *)
  console_register : int; (** one console register write; origin unrecorded *)
}

val alpha_133 : t
(** Calibrated for the paper's hardware; see DESIGN.md section 2. *)

val copy_cycles : t -> bytes:int -> int
(** CPU cycles to move [bytes] memory-to-memory ([copy_per_word] per
    8-byte word). The protocol stack charges this at its true copy
    points only — payload hand-off to an application buffer, blitting
    app data into a transmit frame — never for the zero-copy header
    push/pull path. *)

val us_to_cycles : t -> float -> int
(** [us_to_cycles c us] rounds [us] microseconds to cycles. *)

val cycles_to_us : t -> int -> float

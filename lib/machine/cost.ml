type t = {
  cycles_per_us : int;
  trap_entry : int; trap_exit : int; syscall_glue : int;
  proc_call : int; cross_module_call : int; dispatch_fixed : int;
  guard_eval : int; handler_invoke : int;
  trusted_eval : int; trusted_invoke : int;
  context_switch : int; addr_space_switch : int; strand_spawn : int;
  switch_extra : int; kthread_sync : int; ipc_handoff : int;
  tlb_fill : int; mmu_map_op : int; mem_access : int; tlb_shootdown : int;
  map_service : int; protect_base : int; protect_per_page : int;
  dirty_query : int; fault_classify : int;
  phys_alloc : int; virt_alloc : int; alloc_fixed : int;
  alloc_per_word : int; gc_pause : int;
  gc_scan_per_word : int; gc_copy_per_word : int;
  ip_process : int; udp_process : int; tcp_process : int;
  am_process : int; http_parse : int;
  copy_per_word : int; video_decompress : int;
  ebc_verify_fixed : int; ebc_verify_per_instr : int;
  ebc_step : int; ebc_interp_step : int;
  swap_gate : int; swap_sweep : int; swap_bringup : int; mcast_patch : int;
  ipc_leg_bookkeeping : int;
  interrupt_entry : int; interrupt_exit : int;
  ipi_send : int; ipi_deliver : int; console_register : int;
}

let alpha_133 = {
  cycles_per_us = 133;
  (* Trap. *)
  trap_entry = 230; trap_exit = 180; syscall_glue = 105;
  (* Dispatch: 53 cycles is ~0.4 us per false guard, and 53 + 138 is
     ~1.44 us per invoked handler (section 5.5). A predicate verified
     at install time and compiled runs with no guard-stack
     interpretation and no overrun stamping around the invocation —
     the Rex/bpftime observation that moving verification offline
     leaves only the work itself. *)
  proc_call = 10; cross_module_call = 17; dispatch_fixed = 25;
  guard_eval = 53; handler_invoke = 138;
  trusted_eval = 12; trusted_invoke = 40;
  (* Sched. *)
  context_switch = 450; addr_space_switch = 1400; strand_spawn = 1460;
  switch_extra = 130; kthread_sync = 100; ipc_handoff = 160;
  (* VM. A shootdown is the remote flush itself (PAL tbi) plus the ack
     write the initiator spins on. *)
  tlb_fill = 40; mmu_map_op = 160; mem_access = 3; tlb_shootdown = 120;
  map_service = 300; protect_base = 1850; protect_per_page = 113;
  dirty_query = 230; fault_classify = 500;
  phys_alloc = 120; virt_alloc = 90; alloc_fixed = 60;
  alloc_per_word = 2; gc_pause = 200;
  gc_scan_per_word = 2; gc_copy_per_word = 5;
  (* Protocol. *)
  ip_process = 420; udp_process = 380; tcp_process = 700;
  am_process = 180; http_parse = 250;
  (* Copy. *)
  copy_per_word = 4; video_decompress = 6;
  (* Extension. A compiled instruction is ~2 cycles on the Alpha; an
     interpreted one adds decode, bounds checks and register traffic. *)
  ebc_verify_fixed = 250; ebc_verify_per_instr = 35;
  ebc_step = 2; ebc_interp_step = 18;
  swap_gate = 120; swap_sweep = 290; swap_bringup = 1800; mcast_patch = 45;
  ipc_leg_bookkeeping = 2970;
  (* Device. Cross-CPU signalling on the 21064-era SMP boxes: writing
     the interprocessor-interrupt register is cheap; the receiving
     processor pays an interrupt-class entry before the handler. *)
  interrupt_entry = 300; interrupt_exit = 200;
  ipi_send = 90; ipi_deliver = 320; console_register = 20;
}

let copy_cycles c ~bytes = ((bytes + 7) / 8) * c.copy_per_word

let us_to_cycles c us = int_of_float (Float.round (us *. float_of_int c.cycles_per_us))

let cycles_to_us c cycles = float_of_int cycles /. float_of_int c.cycles_per_us

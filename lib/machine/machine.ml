type t = {
  name : string;
  cost : Cost.t;
  clock : Clock.t;
  sim : Sim.t;
  mem : Phys_mem.t;
  mmu : Mmu.t;
  cpu : Cpu.t;
  cpus : Cpu.t array;
  intr : Intr.t;
  console : Console_dev.t;
  mutable next_line : int;
  mutable shootdowns : int;
  mutable shootdown_acks : int;
}

let default_cpus () =
  match Sys.getenv_opt "SPIN_CPUS" with
  | None | Some "" -> 1
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | _ -> invalid_arg "SPIN_CPUS must be a positive integer")

let build sim ~mem_mb ~name ~cpus:ncpus =
  if ncpus < 1 then invalid_arg "Machine.create: need at least one CPU";
  let clock = Sim.clock sim in
  let frames = mem_mb * 1024 * 1024 / Addr.page_size in
  let mem = Phys_mem.create clock ~frames in
  let mmu = Mmu.create clock mem in
  let cpus = Array.init ncpus (fun id -> Cpu.create ~id clock mmu) in
  let intr = Intr.create ~cpus:ncpus clock in
  let console = Console_dev.create sim in
  let t =
    { name; cost = Clock.cost clock; clock; sim; mem; mmu;
      cpu = cpus.(0); cpus; intr; console;
      next_line = 1; shootdowns = 0; shootdown_acks = 0 } in
  if ncpus > 1 then
    (* Removing a translation must be visible machine-wide before the
       operation returns: interrupt every other CPU, charge its flush,
       and count the acknowledgements. *)
    Mmu.set_shootdown mmu (Some (fun () ->
      t.shootdowns <- t.shootdowns + 1;
      let acks =
        Intr.broadcast_sync intr ~from:(Intr.active_cpu intr)
          (fun ~cpu:_ ->
            Clock.charge clock (Clock.cost clock).Cost.tlb_shootdown) in
      t.shootdown_acks <- t.shootdown_acks + acks));
  t

let create ?(mem_mb = 64) ?cpus ~name () =
  let cpus = match cpus with Some n -> n | None -> default_cpus () in
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  build sim ~mem_mb ~name ~cpus

let create_on sim ?(mem_mb = 64) ?cpus ~name () =
  let cpus = match cpus with Some n -> n | None -> default_cpus () in
  build sim ~mem_mb ~name ~cpus

let set_trap_handler t h =
  Array.iter (fun cpu -> Cpu.set_trap_handler cpu h) t.cpus

let shootdown_stats t = (t.shootdowns, t.shootdown_acks)

let fresh_line t =
  let line = t.next_line in
  t.next_line <- line + 1;
  line

let add_disk ?(blocks = 32768) t =
  Disk_dev.create t.sim t.intr ~line:(fresh_line t) ~blocks

let add_nic t ~kind = Nic.create t.sim t.intr ~line:(fresh_line t) ~kind

let connect a b ~kind ?mbps () =
  if a.sim != b.sim then
    invalid_arg "Machine.connect: machines must share a simulation";
  let nic_a = add_nic a ~kind and nic_b = add_nic b ~kind in
  let mbps = match mbps with Some m -> m | None -> Nic.link_mbps kind in
  let link = Link.create a.sim ~mbps () in
  Nic.attach nic_a link Link.A;
  Nic.attach nic_b link Link.B;
  (nic_a, nic_b)

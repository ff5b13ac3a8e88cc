module Ring = Spin_dstruct.Ring

type t = {
  clock : Clock.t;
  handlers : (int, unit -> unit) Hashtbl.t;
  pending : int Ring.t;                   (* lines latched while masked *)
  mutable mask_depth : int;
  mutable delivered : int;
  (* Interprocessor interrupts: one FIFO inbox per CPU. A posted IPI
     charges the send cost immediately (the initiating CPU writes the
     IPI register) but its action runs only when the target CPU drains
     its inbox — the scheduler does so at every scheduling point, which
     models "the target takes the interrupt at its next instruction
     boundary". Per-target FIFO order is guaranteed; no order is
     guaranteed between different targets. *)
  n_cpus : int;
  ipi_inbox : (unit -> unit) Ring.t array;
  (* The CPU the simulation is currently executing on — host-serial
     execution means exactly one at a time. The scheduler updates it
     as it dispatches; kernel services read it to address shootdowns
     and remote wakeups ("whoami" on real hardware). *)
  mutable active : int;
}

let create ?(cpus = 1) clock =
  if cpus < 1 then invalid_arg "Intr.create: need at least one CPU";
  {
    clock;
    handlers = Hashtbl.create 16;
    pending = Ring.create ~dummy:0 8;
    mask_depth = 0;
    delivered = 0;
    n_cpus = cpus;
    ipi_inbox = Array.init cpus (fun _ -> Ring.create ~dummy:ignore 8);
    active = 0;
  }

let cpus t = t.n_cpus

let set_active_cpu t cpu =
  if cpu < 0 || cpu >= t.n_cpus then invalid_arg "Intr.set_active_cpu: bad CPU";
  t.active <- cpu

let active_cpu t = t.active

let register t ~line h = Hashtbl.replace t.handlers line h

(* Handlers and IPI actions run in interrupt context: masked, and
   unmasked again however they exit. The unmask sits in an exception
   arm, not in a [~finally] closure that would allocate on every
   delivery. *)
let run_masked t action =
  t.mask_depth <- t.mask_depth + 1;
  match action () with
  | () -> t.mask_depth <- t.mask_depth - 1
  | exception e -> t.mask_depth <- t.mask_depth - 1; raise e

let deliver t line =
  match Hashtbl.find t.handlers line with
  | exception Not_found -> ()
  | h ->
    let cost = Clock.cost t.clock in
    Clock.charge t.clock cost.Cost.interrupt_entry;
    t.delivered <- t.delivered + 1;
    (* handlers run with further interrupts masked, as on real hardware *)
    run_masked t h;
    Clock.charge t.clock cost.Cost.interrupt_exit

let rec drain t =
  if t.mask_depth = 0 && not (Ring.is_empty t.pending) then begin
    deliver t (Ring.take t.pending);
    drain t
  end

let post t ~line =
  if t.mask_depth > 0 then Ring.add t.pending line
  else deliver t line;
  drain t

let delivered t = t.delivered

(* --- interprocessor interrupts ------------------------------------- *)

let post_ipi t ~cpu action =
  if cpu < 0 || cpu >= t.n_cpus then invalid_arg "Intr.post_ipi: bad CPU";
  Clock.charge t.clock (Clock.cost t.clock).Cost.ipi_send;
  Ring.add t.ipi_inbox.(cpu) action

let drain_ipis t ~cpu =
  if cpu < 0 || cpu >= t.n_cpus then invalid_arg "Intr.drain_ipis: bad CPU";
  let inbox = t.ipi_inbox.(cpu) in
  let n = ref 0 in
  let cost = Clock.cost t.clock in
  while not (Ring.is_empty inbox) do
    let action = Ring.take inbox in
    Clock.charge t.clock cost.Cost.ipi_deliver;
    incr n;
    (* IPI actions run in interrupt context on the target CPU. *)
    run_masked t action
  done;
  !n

let ipis_pending t =
  Array.fold_left (fun acc q -> acc + Ring.length q) 0 t.ipi_inbox

let broadcast_sync t ~from action =
  if from < 0 || from >= t.n_cpus then
    invalid_arg "Intr.broadcast_sync: bad CPU";
  let cost = Clock.cost t.clock in
  let n = ref 0 in
  for cpu = 0 to t.n_cpus - 1 do
    if cpu <> from then begin
      Clock.charge t.clock cost.Cost.ipi_send;
      Clock.charge t.clock cost.Cost.ipi_deliver;
      run_masked t (fun () -> action ~cpu);
      incr n
    end
  done;
  !n

(** Network interface glue: turns NIC interrupts into dispatcher
    events.

    The receive interrupt handler only moves the frame off the device
    and wakes the protocol thread; protocol processing runs in "a
    separately scheduled kernel thread outside of the interrupt
    handler" (paper, section 5.3), which raises the interface's
    [<Name>.PktArrived] event for each frame.

    Driver overheads model the paper's unoptimized vendor drivers;
    [optimized:true] models the faster drivers of the 337/241 us
    footnote.

    {2 Buffer ownership}

    The packets raised on {!rx_event} alias the DMA buffer the NIC
    wrote — no copy is made between the device ring and the protocol
    graph. Handlers up the stack receive views of that same buffer
    (see {!Pkt} for the aliasing rules) and may reuse its headroom to
    transmit a response in place. Conversely, a packet passed to
    {!transmit} is handed off: the device copies it onto the wire
    before the call returns (the path's single true copy, so receivers
    never alias the sender), and the view must not be reused. TCP
    keeps its own views of the send buffer and pushes fresh headers in
    front of them on every retransmit.

    {2 Batching}

    One protocol-thread wakeup drains up to 8 queued frames:
    the first pays the driver's full receive overhead, the rest only a
    coalesced residue — under load one interrupt services a burst,
    keeping per-packet work near hardware cost. A single outstanding
    probe (the latency tables) always pays the full cost. *)

(** {2 Receive sharding (SMP)}

    With [rx_shards > 1] the interface runs one protocol strand per
    shard, netisr-style: the interrupt handler hashes each frame's
    flow (link header + leading IP header bytes) to a shard queue, and
    each shard strand — pinned to CPU [shard mod ncpus] — services
    only its own queue. A flow's frames always hash to the same shard,
    so per-flow ordering is preserved without any cross-CPU queue
    access; different flows spread across CPUs. *)

type t

val create :
  ?optimized:bool -> ?rx_shards:int ->
  Spin_machine.Machine.t -> Spin_sched.Sched.t -> Spin_core.Dispatcher.t ->
  Spin_machine.Nic.t -> name:string -> t
(** [name] prefixes the event ("Ether", "ATM", "T3"). [rx_shards]
    (default 1) is the number of parallel protocol strands;
    {!Host.wire} passes the scheduler's CPU count. *)

val rx_event : t -> (Pkt.t, unit) Spin_core.Dispatcher.event
(** The per-frame event. Declared with an {!Spin_core.Ebc} layout
    (field 0 = frame length; payload = the wire bytes), so packet
    filters expressed as bytecode verify at install time and dispatch
    trusted-fast. *)

val add_filter :
  t ->
  installer:string ->
  Spin_core.Ebc.program ->
  (Pkt.t -> unit) ->
  ((Pkt.t, unit) Spin_core.Dispatcher.handler,
   Spin_core.Dispatcher.install_error) result
(** Installs a verified packet filter on the receive path: [program]
    is checked once at install (against the frame layout) and then
    runs as the handler's trusted predicate with zero per-frame
    checks. A program that fails verification installs nothing and
    returns [Rejected]. *)

val mtu : t -> int

val transmit : t -> Pkt.t -> bool
(** Driver transmit: charges the driver overhead and the NIC I/O
    cost, then transfers the frame to the device. [false] when the
    frame exceeds the MTU or the NIC is unplugged. The packet is
    consumed — do not touch it after the call. *)

val transmit_burst : t -> Pkt.t list -> int
(** Transmit a burst through one driver doorbell: the full per-frame
    driver overhead is charged once, subsequent frames pay the
    coalesced residue. Returns the number of frames accepted. *)

val start : t -> unit
(** Spawns the protocol-processing thread(s) — one per shard, named
    ["<name>-input"] (or ["<name>.<shard>-input"] when sharded) — and
    registers the receive interrupt handler. Call once, before
    [Sched.run]. *)

val drops : t -> int
(** Frames the NIC dropped on receive-ring overflow — the device's
    {!Spin_machine.Nic.rx_dropped}, surfaced at the driver so overload
    is observable instead of a silent drop. *)

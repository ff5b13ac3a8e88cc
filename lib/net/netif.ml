module Machine = Spin_machine.Machine
module Nic = Spin_machine.Nic
module Intr = Spin_machine.Intr
module Clock = Spin_machine.Clock
module Trace = Spin_machine.Trace
module Sched = Spin_sched.Sched
module Dispatcher = Spin_core.Dispatcher
module Ebc = Spin_core.Ebc
module Ty = Spin_core.Ty
module Ring = Spin_dstruct.Ring

type t = {
  machine : Machine.t;
  sched : Sched.t;
  nic : Nic.t;
  dispatcher : Dispatcher.t;
  name : string;
  rx_event : (Pkt.t, unit) Dispatcher.event;
  rx_shards : int;
  rx_queues : Pkt.t Ring.t array;         (* one per shard, room for 32 *)
  tx_overhead : int;              (* driver cycles per transmitted frame *)
  rx_overhead : int;              (* driver cycles per received frame *)
  mutable proto_threads : Spin_sched.Strand.t array;  (* empty until start *)
}

(* Unoptimized vendor-driver overheads (cycles), per kind. The paper's
   measured round trips imply large fixed per-packet driver costs:
   "neither the Lance driver nor the FORE driver is optimized for
   latency". *)
let overheads ~optimized kind =
  let scale c = if optimized then c * 2 / 5 else c in
  match kind with
  | Nic.Lance -> (scale 7300, scale 14600)       (* ~55 us tx, ~110 us rx *)
  | Nic.Fore_atm -> (scale 8000, scale 15300)    (* ~60 us tx, ~115 us rx *)
  | Nic.T3 -> (scale 5800, scale 5200)           (* shared vendor driver *)

(* Most of the driver's per-frame cost is taking the interrupt, ring
   bookkeeping and device register traffic; frames serviced on the
   same wakeup amortize all but this residue. *)
let coalesce_divisor = 4

(* Frames serviced per protocol-thread wakeup. *)
let rx_batch = 8

let create ?(optimized = false) ?(rx_shards = 1) machine sched dispatcher nic
    ~name =
  if rx_shards < 1 then invalid_arg "Netif.create: rx_shards";
  let tx_overhead, rx_overhead = overheads ~optimized (Nic.kind nic) in
  (* The rx event publishes the raw frame as a bytecode payload: a
     verified packet filter reads wire bytes directly, the way SPIN's
     section-2 foil compiles filters into the kernel. *)
  let rx_event =
    Dispatcher.declare dispatcher ~name:(name ^ ".PktArrived") ~owner:name
      ~layout:(Ebc.layout ~name:(name ^ ".PktArrived")
                 ~fields:[ ("len", Ty.Int) ]
                 ~read:(fun pkt _ -> Pkt.length pkt)
                 ~payload:Pkt.ebc_payload ())
      (fun (_ : Pkt.t) -> ()) in
  { machine; sched; nic; dispatcher; name; rx_event;
    rx_shards;
    rx_queues =
      Array.init rx_shards (fun _ -> Ring.create ~dummy:(Pkt.empty ()) 32);
    tx_overhead; rx_overhead;
    proto_threads = [||] }

let rx_event t = t.rx_event

(* Install a verified packet filter on the receive path: the program
   is checked at install time and dispatches trusted-fast, with zero
   per-frame guard or bound checks. Rejections install nothing. *)
let add_filter t ~installer program handler =
  Dispatcher.install t.rx_event ~installer
    ~spec:(Dispatcher.Handler_spec.verified program) handler

let mtu t = Nic.mtu t.nic

let transmit_frame t pkt =
  Nic.transmit t.nic ~off:(Pkt.headroom pkt) ~len:(Pkt.length pkt)
    (Pkt.buffer pkt)

let transmit t pkt =
  let tr = Trace.of_clock t.machine.Machine.clock in
  let sp =
    if Trace.on tr then
      Trace.begin_span tr ~cat:"netif" ~name:(t.name ^ ".tx")
        ~args:[ ("bytes", string_of_int (Pkt.length pkt)) ] ()
    else Trace.null_span in
  Clock.charge t.machine.Machine.clock t.tx_overhead;
  let ok = transmit_frame t pkt in
  if Trace.on tr then Trace.end_span tr sp ~args:[ ("ok", string_of_bool ok) ];
  ok

(* A burst pays the full driver overhead once; subsequent frames ride
   the same device doorbell and descriptor flush. *)
let transmit_burst t pkts =
  match pkts with
  | [] -> 0
  | first :: rest ->
    let tr = Trace.of_clock t.machine.Machine.clock in
    let sp =
      if Trace.on tr then
        Trace.begin_span tr ~cat:"netif" ~name:(t.name ^ ".tx_burst")
          ~args:[ ("frames", string_of_int (List.length pkts)) ] ()
      else Trace.null_span in
    Clock.charge t.machine.Machine.clock t.tx_overhead;
    let sent = ref (if transmit_frame t first then 1 else 0) in
    List.iter
      (fun pkt ->
        Clock.charge t.machine.Machine.clock
          (t.tx_overhead / coalesce_divisor);
        if transmit_frame t pkt then incr sent)
      rest;
    if Trace.on tr then
      Trace.end_span tr sp ~args:[ ("sent", string_of_int !sent) ];
    !sent

(* Flow steering, netisr-style: hash the flow-identifying header
   bytes — protocol, addresses and ports live in bytes 2..17 of our
   frames — so every frame of a flow lands on the same shard, and the
   same CPU, preserving per-flow ordering without locks. Bytes 4..5
   are the IP payload length: they differ between segments of the
   same connection and MUST stay out of the hash, or a flow sprays
   across shards and its segments reorder (TCP then drops the
   out-of-order tail and eats a retransmit timeout per request). *)
let flow_hash pkt =
  let buf = Pkt.buffer pkt and off = Pkt.headroom pkt in
  let stop = min (Pkt.length pkt) 18 in
  let h = ref 0x811c9dc5 in
  for i = 2 to stop - 1 do
    if i <> 4 && i <> 5 then
      h := ((!h lxor Char.code (Bytes.get buf (off + i))) * 0x01000193)
           land 0x3FFFFFFF
  done;
  !h

let shard_of t pkt = if t.rx_shards = 1 then 0 else flow_hash pkt mod t.rx_shards

let service t pkt ~first =
  let tr = Trace.of_clock t.machine.Machine.clock in
  let sp =
    if Trace.on tr then
      Trace.begin_span tr ~cat:"netif" ~name:(t.name ^ ".rx")
        ~args:[ ("bytes", string_of_int (Pkt.length pkt)) ] ()
    else Trace.null_span in
  Clock.charge t.machine.Machine.clock
    (if first then t.rx_overhead else t.rx_overhead / coalesce_divisor);
  (* The frame is lent to the raise: read its buffer now (a handler's
     [Pkt.reserve] may move the view to a new one), and hand it back
     to the device once the raise returns, unless an asynchronous
     handler started meanwhile, which may read it later; that buffer
     is left to the collector. *)
  let frame = Pkt.buffer pkt
  and async_starts = Dispatcher.async_starts t.dispatcher in
  Dispatcher.raise_default t.rx_event () pkt;
  if Dispatcher.async_starts t.dispatcher = async_starts then
    Nic.release t.nic frame;
  Trace.end_span tr sp

(* The rest of a wakeup's burst: up to [rx_batch] frames in all. A
   top-level loop, and [Ring.take] behind an emptiness test, so a
   frame is taken without a closure or an option box. *)
let rec burst t rx_queue n =
  if n < rx_batch && not (Ring.is_empty rx_queue) then begin
    service t (Ring.take rx_queue) ~first:false;
    burst t rx_queue (n + 1)
  end

(* One wakeup drains up to [rx_batch] frames from this shard's queue:
   the first pays the full driver receive overhead, the rest only the
   coalesced residue — the load-scaling path where one interrupt
   services a burst. *)
let protocol_loop t shard () =
  let rx_queue = t.rx_queues.(shard) in
  while true do
    if Ring.is_empty rx_queue then Sched.block_current t.sched
    else begin
      service t (Ring.take rx_queue) ~first:true;
      burst t rx_queue 1;
      Sched.preempt_point t.sched
    end
  done

(* The ring frame is the wire's copy (made by the sender's device):
   view its bytes in place, straight into the stack. *)
let rec drain_rx t =
  if Nic.rx_pending t.nic then begin
    let len = Nic.rx_length t.nic in
    let pkt = Pkt.of_frame (Nic.receive t.nic) ~len in
    Ring.add t.rx_queues.(shard_of t pkt) pkt;
    drain_rx t
  end

let start t =
  if Array.length t.proto_threads = 0 then begin
    t.proto_threads <-
      Array.init t.rx_shards (fun shard ->
        let sname =
          if t.rx_shards = 1 then t.name ^ "-input"
          else Printf.sprintf "%s.%d-input" t.name shard in
        let strand =
          Sched.spawn t.sched ~owner:t.name ~priority:20 ~name:sname
            (protocol_loop t shard) in
        (* Each shard is a per-CPU protocol strand: pin it so its
           flows' protocol processing never migrates. *)
        if t.rx_shards > 1 then
          Sched.set_affinity t.sched strand
            (Some (shard mod Sched.ncpus t.sched));
        strand);
    Intr.register t.machine.Machine.intr ~line:(Nic.line t.nic) (fun () ->
      drain_rx t;
      for shard = 0 to t.rx_shards - 1 do
        if not (Ring.is_empty t.rx_queues.(shard)) then
          Sched.unblock t.sched t.proto_threads.(shard)
      done)
  end

let drops t = Nic.rx_dropped t.nic

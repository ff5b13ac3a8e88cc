module Machine = Spin_machine.Machine
module Clock = Spin_machine.Clock

let proto = 200
let header = 4                            (* handler u16, len u16 *)

type stats = { mutable delivered : int; mutable dropped : int }

type t = {
  machine : Machine.t;
  ip : Ip.t;
  handlers : (src:Ip.addr -> Bytes.t -> unit) Spin_dstruct.Idtable.t;
  stats : stats;
}

let charge t =
  let clock = t.machine.Machine.clock in
  Clock.charge clock (Clock.cost clock).Spin_machine.Cost.am_process

let input t (pkt : Ip.packet) =
  charge t;
  let b = pkt.Ip.payload in
  (* A header cut short or a length running past the payload is
     malformed: dropped, and counted like an unknown handler. *)
  let len = if Pkt.length b >= header then Pkt.get_u16_le b 2 else 0 in
  let handler =
    if Pkt.length b >= header + len then
      Spin_dstruct.Idtable.lookup t.handlers (Pkt.get_u16_le b 0)
    else None in
  match handler with
  | Some handler ->
    t.stats.delivered <- t.stats.delivered + 1;
    (* Extension boundary: handlers own their argument, so hand them a
       private copy (charged — a true copy point). *)
    Clock.charge t.machine.Machine.clock
      (Spin_machine.Cost.copy_cycles
         (Clock.cost t.machine.Machine.clock) ~bytes:len);
    handler ~src:pkt.Ip.src (Pkt.contents (Pkt.sub b ~pos:header ~len))
  | None -> t.stats.dropped <- t.stats.dropped + 1

let create machine ip =
  let t = {
    machine; ip;
    handlers = Spin_dstruct.Idtable.create ();
    stats = { delivered = 0; dropped = 0 };
  } in
  ignore (Ip.attach ip ~proto ~installer:"A.M." (input t));
  t

let register t handler = Spin_dstruct.Idtable.insert t.handlers handler

let send t ~dst ~handler payload =
  charge t;
  (* Application hand-off: one charged copy, then zero-copy down. *)
  Clock.charge t.machine.Machine.clock
    (Spin_machine.Cost.copy_cycles (Clock.cost t.machine.Machine.clock)
       ~bytes:(Bytes.length payload));
  let pkt = Pkt.of_payload payload in
  let off = Pkt.reserve pkt header in
  let buf = Pkt.buffer pkt in
  Bytes.set_uint16_le buf off handler;
  Bytes.set_uint16_le buf (off + 2) (Bytes.length payload);
  Ip.send t.ip ~dst ~proto pkt

let stats t = { t.stats with delivered = t.stats.delivered }

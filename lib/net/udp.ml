module Machine = Spin_machine.Machine
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Trace = Spin_machine.Trace
module Dispatcher = Spin_core.Dispatcher
module Ebc = Spin_core.Ebc
module Ty = Spin_core.Ty

type datagram = {
  src : Ip.addr;
  src_port : int;
  dst_port : int;
  payload : Pkt.t;
}

let header_bytes = 8

type t = {
  machine : Machine.t;
  ip : Ip.t;
  event : (datagram, unit) Dispatcher.event;
}

let charge t =
  let clock = t.machine.Machine.clock in
  Clock.charge clock (Clock.cost clock).Cost.udp_process

let input t (pkt : Ip.packet) =
  charge t;
  let b = pkt.Ip.payload in
  if Pkt.length b >= header_bytes then begin
    let src_port = Pkt.get_u16_le b 0 in
    let dst_port = Pkt.get_u16_le b 2 in
    let len = Pkt.get_u16_le b 4 in
    if Pkt.length b >= header_bytes + len then begin
      (* The datagram payload is a view of the received frame — the
         endpoint sees the packet in place, headroom intact for an
         in-place reply. *)
      let payload = Pkt.sub b ~pos:header_bytes ~len in
      let tr = Trace.of_clock t.machine.Machine.clock in
      if Trace.on tr then
        Trace.instant tr ~cat:"udp" ~name:"rx"
          ~args:[ ("src", Ip.addr_to_string pkt.Ip.src);
                  ("dst_port", string_of_int dst_port);
                  ("bytes", string_of_int len) ] ();
      Dispatcher.raise_default t.event ()
        { src = pkt.Ip.src; src_port; dst_port; payload }
    end
  end

(* The bytecode view of a datagram; [dst_port_slot] is the ABI every
   port-demux program loads. *)
let dst_port_slot = 2

let datagram_layout : datagram Ebc.layout =
  Ebc.layout ~name:"UDP.PacketArrived"
    ~fields:[ ("src", Ty.Int); ("src_port", Ty.Int); ("dst_port", Ty.Int) ]
    ~read:(fun d slot ->
      match slot with
      | 0 -> d.src
      | 1 -> d.src_port
      | 2 -> d.dst_port
      | _ -> 0)
    ~payload:{ Ebc.p_buf = (fun d -> Pkt.buffer d.payload);
               p_off = (fun d -> Pkt.headroom d.payload);
               p_len = (fun d -> Pkt.length d.payload) }
    ()

(* The port filter over a whole frame, as a receive-path program: IP
   protocol is UDP and the UDP destination port is [port]. Over this
   stack's wire format the link header is 2 bytes of ethertype, the IP
   protocol byte sits at offset 2 and the UDP destination port at
   2 + 12 + 2. *)
let frame_port_prog ~port =
  Ebc.[| Ldb (0, 2); Ldi (1, Ip.proto_udp); Eq (0, 0, 1);
         Ldw (1, 16); Ldi (2, port); Eq (1, 1, 2);
         And (0, 0, 1); Ret 0 |]

let create machine dispatcher ip =
  let event =
    Dispatcher.declare dispatcher ~name:"UDP.PacketArrived" ~owner:"UDP"
      ~layout:datagram_layout
      (fun (_ : datagram) -> ()) in
  let t = { machine; ip; event } in
  ignore (Ip.attach ip ~proto:Ip.proto_udp ~installer:"UDP" (input t));
  t

let packet_arrived t = t.event

(* The UDP module supplies the port guard on every installation — as
   verified bytecode when no runtime bound was requested, so port
   demux dispatches trusted-fast. A caller asking for [bound_cycles]
   wants the handler body policed per event, which is exactly what the
   trusted path forgoes: that case installs the closure guard
   instead. *)
let listen t ~port ~installer handler =
  let spec =
    Dispatcher.Handler_spec.verified (Ebc.match_field ~slot:dst_port_slot port) in
  Dispatcher.ok_exn ~site:"Udp.listen"
    (Dispatcher.install t.event ~installer ~spec handler)


let encode_datagram ~src_port ~dst_port payload =
  let b = Bytes.make (header_bytes + Bytes.length payload) '\000' in
  Bytes.set_uint16_le b 0 src_port;
  Bytes.set_uint16_le b 2 dst_port;
  Bytes.set_uint16_le b 4 (Bytes.length payload);
  Bytes.blit payload 0 b header_bytes (Bytes.length payload);
  b

let send_pkt t ?(src_port = 0) ~dst ~port payload =
  charge t;
  let plen = Pkt.length payload in
  let off = Pkt.reserve payload header_bytes in
  let buf = Pkt.buffer payload in
  Bytes.set_uint16_le buf off src_port;
  Bytes.set_uint16_le buf (off + 2) port;
  Bytes.set_uint16_le buf (off + 4) plen;
  Bytes.set_uint16_le buf (off + 6) 0;
  Ip.send t.ip ~dst ~proto:Ip.proto_udp payload

let send t ?src_port ~dst ~port payload =
  (* Application hand-off: one charged copy into a headroomed buffer,
     then the zero-copy path down the stack. *)
  Clock.charge t.machine.Machine.clock
    (Cost.copy_cycles (Clock.cost t.machine.Machine.clock)
       ~bytes:(Bytes.length payload));
  send_pkt t ?src_port ~dst ~port (Pkt.of_payload payload)

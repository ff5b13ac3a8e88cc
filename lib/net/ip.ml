module Machine = Spin_machine.Machine
module Clock = Spin_machine.Clock
module Trace = Spin_machine.Trace
module Dispatcher = Spin_core.Dispatcher
module Ebc = Spin_core.Ebc
module Ty = Spin_core.Ty

type addr = int

let addr_to_string a =
  Printf.sprintf "%d.%d.%d.%d"
    ((a lsr 24) land 0xff) ((a lsr 16) land 0xff)
    ((a lsr 8) land 0xff) (a land 0xff)

let addr_of_quad a b c d =
  ((a land 0xff) lsl 24) lor ((b land 0xff) lsl 16)
  lor ((c land 0xff) lsl 8) lor (d land 0xff)

type packet = {
  src : addr;
  dst : addr;
  proto : int;
  ttl : int;
  payload : Pkt.t;
}

let proto_icmp = 1
let proto_tcp = 6
let proto_udp = 17

let ethertype_ip = 0x0800
let link_header = 2                       (* ethertype only: p2p links *)
let ip_header = 12

type stats = {
  mutable forwarded : int;
  mutable dropped : int;
  mutable sent : int;
}

type t = {
  machine : Machine.t;
  event : (packet, unit) Dispatcher.event;
  mutable addrs : addr list;               (* this host's, one per interface *)
  mutable routes : (addr * Netif.t) list;
  stats : stats;
}

(* The bytecode view of a packet: header fields as typed slots, the
   payload as wire bytes. Slot numbers are part of the event's ABI —
   [proto_slot] is what every protocol-demux program loads. *)
let proto_slot = 2

let packet_layout : packet Ebc.layout =
  Ebc.layout ~name:"IP.PacketArrived"
    ~fields:[ ("src", Ty.Int); ("dst", Ty.Int); ("proto", Ty.Int);
              ("ttl", Ty.Int) ]
    ~read:(fun pkt slot ->
      match slot with
      | 0 -> pkt.src
      | 1 -> pkt.dst
      | 2 -> pkt.proto
      | 3 -> pkt.ttl
      | _ -> 0)
    ~payload:{ Ebc.p_buf = (fun pkt -> Pkt.buffer pkt.payload);
               p_off = (fun pkt -> Pkt.headroom pkt.payload);
               p_len = (fun pkt -> Pkt.length pkt.payload) }
    ()

let create machine dispatcher =
  let event =
    Dispatcher.declare dispatcher ~name:"IP.PacketArrived" ~owner:"IP"
      ~layout:packet_layout
      (fun (_ : packet) -> ()) in
  { machine; event; addrs = []; routes = [];
    stats = { forwarded = 0; dropped = 0; sent = 0 } }

let packet_arrived t = t.event

let rec has_addr a = function
  | [] -> false
  | d :: rest -> d = a || has_addr a rest

let is_local t a = has_addr a t.addrs

let local_addr t =
  match t.addrs with
  | a :: _ -> a
  | [] -> raise Not_found

(* The interface toward a non-local [dst]; raises [Not_found] when
   there is no route, so a lookup boxes nothing. *)
let rec route_in dst = function
  | [] -> raise Not_found
  | (d, netif) :: rest -> if d = dst then netif else route_in dst rest

(* Write the IP and link headers into the packet's headroom — the
   payload bytes never move. On a forwarded or echoed packet the
   headers land exactly where the received ones sat. *)
let push_headers pkt ~src ~dst ~proto ~ttl =
  let plen = Pkt.length pkt in
  let off = Pkt.reserve pkt ip_header in
  let buf = Pkt.buffer pkt in
  Bytes.set_uint8 buf off proto;
  Bytes.set_uint8 buf (off + 1) ttl;
  Bytes.set_uint16_le buf (off + 2) plen;
  Bytes.set_int32_le buf (off + 4) (Int32.of_int src);
  Bytes.set_int32_le buf (off + 8) (Int32.of_int dst);
  let off = Pkt.reserve pkt link_header in
  let buf = Pkt.buffer pkt in
  Bytes.set_uint16_le buf off ethertype_ip

let encode_frame ~src ~dst ~proto payload =
  let frame = Pkt.of_payload payload in
  push_headers frame ~src ~dst ~proto ~ttl:64;
  frame

let charge t =
  let clock = t.machine.Machine.clock in
  Clock.charge clock (Clock.cost clock).Spin_machine.Cost.ip_process

let trace_pkt t name ~src ~dst ~proto =
  let tr = Trace.of_clock t.machine.Machine.clock in
  if Trace.on tr then
    Trace.instant tr ~cat:"ip" ~name
      ~args:[ ("src", addr_to_string src);
              ("dst", addr_to_string dst);
              ("proto", string_of_int proto) ] ()

let deliver t pkt =
  trace_pkt t "deliver" ~src:pkt.src ~dst:pkt.dst ~proto:pkt.proto;
  Dispatcher.raise_default t.event () pkt

let transmit_on t netif ~src ~dst ~proto ~ttl payload =
  push_headers payload ~src ~dst ~proto ~ttl;
  if Netif.transmit netif payload then begin
    t.stats.sent <- t.stats.sent + 1;
    true
  end else begin
    t.stats.dropped <- t.stats.dropped + 1;
    false
  end

(* A routed send builds no packet record: the header fields go
   straight into the headroom. *)
let send t ?src ~dst ~proto payload =
  charge t;
  let src = match src with Some s -> s | None -> local_addr t in
  trace_pkt t "send" ~src ~dst ~proto;
  if is_local t dst then begin
    t.stats.sent <- t.stats.sent + 1;
    deliver t { src; dst; proto; ttl = 64; payload };
    true
  end else
    match route_in dst t.routes with
    | exception Not_found -> t.stats.dropped <- t.stats.dropped + 1; false
    | netif ->
      if Pkt.length payload > Netif.mtu netif - link_header - ip_header
      then begin
        t.stats.dropped <- t.stats.dropped + 1;
        false
      end else transmit_on t netif ~src ~dst ~proto ~ttl:64 payload

let drop t pkt =
  t.stats.dropped <- t.stats.dropped + 1;
  trace_pkt t "drop" ~src:pkt.src ~dst:pkt.dst ~proto:pkt.proto

let forward t pkt =
  if pkt.ttl <= 1 then drop t pkt
  else
    match route_in pkt.dst t.routes with
    | exception Not_found -> drop t pkt
    | netif ->
      t.stats.forwarded <- t.stats.forwarded + 1;
      trace_pkt t "forward" ~src:pkt.src ~dst:pkt.dst ~proto:pkt.proto;
      ignore
        (transmit_on t netif ~src:pkt.src ~dst:pkt.dst ~proto:pkt.proto
           ~ttl:(pkt.ttl - 1) pkt.payload)

(* A frame too short for its headers is dropped before any header is
   read: a read past its end would fault this handler, and the
   dispatcher would evict IP from the interface. *)
let input t frame =
  charge t;
  if Pkt.length frame < link_header + ip_header then
    t.stats.dropped <- t.stats.dropped + 1
  else begin
    Pkt.drop frame link_header;
    let proto = Pkt.get_u8 frame 0 in
    let ttl = Pkt.get_u8 frame 1 in
    let len = Pkt.get_u16_le frame 2 in
    let src = Pkt.get_u32_le frame 4 in
    let dst = Pkt.get_u32_le frame 8 in
    Pkt.drop frame ip_header;
    if Pkt.length frame < len then t.stats.dropped <- t.stats.dropped + 1
    else begin
      (* The payload is the received frame itself, trimmed — the
         consumed headers remain in its headroom for an in-place
         response. *)
      Pkt.truncate frame len;
      let pkt = { src; dst; proto; ttl; payload = frame } in
      if is_local t dst then deliver t pkt else forward t pkt
    end
  end

(* The ethertype check as bytecode: an [Ldw] past a frame's end reads
   0, which is not the ethertype. [input] checks the IP header's room. *)
let frame_is_ip_prog =
  Ebc.[| Ldw (0, 0); Ldi (1, ethertype_ip); Eq (2, 0, 1); Ret 2 |]

let add_interface t netif ~addr =
  t.addrs <- t.addrs @ [ addr ];
  ignore
    (Dispatcher.ok_exn ~site:"Ip.add_interface"
       (Netif.add_filter netif ~installer:"IP" frame_is_ip_prog
          (fun frame -> input t frame)))

let add_route t ~dst netif = t.routes <- (dst, netif) :: t.routes

(* "The IP module, which defines the default implementation of the
   PacketArrived event, upon each installation constructs a guard that
   compares the type field in the header of the incoming packet
   against the set of IP protocol types that the handler may
   service." The guard is constructed as bytecode and verified at
   install, so protocol demux dispatches trusted-fast. *)
let attach t ~proto ~installer handler =
  Dispatcher.ok_exn ~site:"Ip.attach"
    (Dispatcher.install t.event ~installer
       ~spec:
         (Dispatcher.Handler_spec.verified
            (Ebc.match_field ~slot:proto_slot proto))
       handler)

let stats t = { t.stats with sent = t.stats.sent }

(** The IP layer, as a SPIN extension.

    Incoming frames arrive on the interfaces' [PktArrived] events;
    IP's handler parses, then either raises [IP.PacketArrived] for
    local delivery or forwards toward the destination. As in the
    paper, the IP module is the default implementation of
    [IP.PacketArrived] and constructs, for each installation, a guard
    that compares the protocol field of the incoming packet against
    the set of protocol types the handler services — one event, many
    per-instance dispatches. *)

type addr = int

val addr_to_string : addr -> string
(** Dotted quad. *)

val addr_of_quad : int -> int -> int -> int -> addr

type packet = {
  src : addr;
  dst : addr;
  proto : int;
  ttl : int;
  payload : Pkt.t;
  (** A view of the very frame the NIC received (headers consumed into
      its headroom) on the receive path, or the caller's transmit
      buffer on the send path. Read-only for handlers, except that an
      owner may push response headers into the headroom ({!Pkt}). *)
}

val proto_icmp : int
val proto_tcp : int
val proto_udp : int

type t

val create : Spin_machine.Machine.t -> Spin_core.Dispatcher.t -> t

val add_interface : t -> Netif.t -> addr:addr -> unit
(** Binds an interface and a local address; installs IP's handler on
    the interface's receive event. *)

val add_route : t -> dst:addr -> Netif.t -> unit
(** Host route: packets for [dst] leave through that interface. *)

val local_addr : t -> addr
(** The first bound address. Raises [Not_found] if none. *)

val is_local : t -> addr -> bool
(** Whether [addr] is bound here: a {!send} to it loops back, with no
    device copy. *)

val packet_arrived : t -> (packet, unit) Spin_core.Dispatcher.event

val attach :
  t -> proto:int -> installer:string -> (packet -> unit) ->
  (packet, unit) Spin_core.Dispatcher.handler
(** Installs a handler for one IP protocol; the IP module supplies the
    protocol-type guard, compiled to verified bytecode — protocol
    demux dispatches on the trusted-fast path. *)

val encode_frame :
  src:addr -> dst:addr -> proto:int -> Bytes.t -> Pkt.t
(** Build a ready-to-transmit link frame (no charges, no routing) —
    for extensions that sit below IP and patch headers themselves,
    like the video multicast. Copies [payload] once. *)

val send :
  t -> ?src:addr -> dst:addr -> proto:int -> Pkt.t -> bool
(** Transmit the packet zero-copy with TTL 64: the IP and link
    headers are pushed into the packet's headroom and the same buffer
    goes to the driver. The packet is consumed — do not touch it after the call.
    [false] when no route exists or the datagram exceeds the route's
    MTU (no fragmentation). Local destinations loop back. *)

type stats = {
  mutable forwarded : int;
  mutable dropped : int;
  mutable sent : int;
}

val stats : t -> stats

(** The Forward extension (paper, sections 1.2, 5.3): transparent
    packet-level forwarding of all data *and control* packets destined
    for a particular port to a secondary host.

    Because the node sits inside the protocol stack — below TCP —
    SYN/FIN/RST segments pass through untouched, preserving end-to-end
    connection semantics, unlike a user-level splice above the
    transport layer. *)

type t

val create : ?tcp:Tcp.t -> Ip.t -> proto:int -> port:int -> to_:Ip.addr -> t
(** Installs a guarded handler on [IP.PacketArrived] of the forwarding
    host: packets for [port] are re-addressed to [to_]; replies flow
    back along the recorded flow. [proto] is [Ip.proto_tcp] or
    [Ip.proto_udp] (both carry ports in the same header slots). *)

val packets_forwarded : t -> int

(** UDP, as a SPIN extension.

    The UDP module owns [UDP.PacketArrived]; [listen] installs a
    handler with the module's port guard, so each endpoint is a
    per-instance dispatch on the shared event (section 3.2). *)

type t

type datagram = {
  src : Ip.addr;
  src_port : int;
  dst_port : int;
  payload : Pkt.t;
  (** A view of the frame the NIC received — the UDP header (and the
      IP/link headers below it) sit consumed in its headroom, so an
      endpoint can push response headers and echo the buffer back
      without copying. Read-only otherwise; use {!Pkt.contents} to
      keep the data past the handler. *)
}

val header_bytes : int

val frame_port_prog : port:int -> Spin_core.Ebc.program
(** A receive-path packet filter over a whole frame ({!Netif.rx_event}'s
    layout): the IP protocol is UDP and the UDP destination port is
    [port]. The section-2 foil runs this one program both ways —
    verified and compiled, or interpreted by {!Spin_core.Ebc.run_counted}
    at {!Spin_machine.Cost.t}'s [ebc_interp_step] per step. *)

val create : Spin_machine.Machine.t -> Spin_core.Dispatcher.t -> Ip.t -> t

val packet_arrived : t -> (datagram, unit) Spin_core.Dispatcher.event

val listen :
  t -> port:int -> installer:string -> (datagram -> unit) ->
  (datagram, unit) Spin_core.Dispatcher.handler
(** Installs a synchronous endpoint whose port match is a verified
    {!Spin_core.Ebc} program; a faulting endpoint is uninstalled. An
    endpoint that needs a cycle bound, asynchrony or another failure
    policy installs on {!packet_arrived} with its own
    [Dispatcher.Handler_spec]. *)

val encode_datagram : src_port:int -> dst_port:int -> Bytes.t -> Bytes.t
(** Build the UDP wire payload without sending (no charges). *)

val send :
  t -> ?src_port:int -> dst:Ip.addr -> port:int -> Bytes.t -> bool
(** Application hand-off: one charged copy of [payload] into a fresh
    headroomed buffer, then the zero-copy path. The caller keeps
    ownership of [payload]. *)

val send_pkt :
  t -> ?src_port:int -> dst:Ip.addr -> port:int -> Pkt.t -> bool
(** Zero-copy send: the UDP header is pushed into the packet's
    headroom and the same buffer descends the stack. The packet is
    consumed — do not touch it after the call. Echo servers pass the
    received {!datagram} payload back here directly. *)

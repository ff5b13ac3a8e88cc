(** The networked video system (paper, sections 1.2 and 5.4).

    The server is structured as three kernel extensions:
    - one reads video frames from the local file system,
    - one sends them over the network,
    - one registers a handler on the sender's [Video.SendPacket]
      event, transforming the single send into a multicast to the
      client list — so each outgoing packet is pushed through the
      protocol graph once, not once per client stream.

    The client installs an extension that awaits incoming video
    packets, "decompresses" them (a per-byte CPU charge) and writes
    them to the frame buffer. *)

type server

val create_server :
  ?mcast:bool ->
  Host.t -> fs:Spin_fs.Simple_fs.t -> netif:Netif.t -> port:int -> server
(** The sender transmits UDP video packets out of [netif]. By default
    the multicast extension is installed as ["VideoMcast"]; pass
    [~mcast:false] when the fan-out handler is supplied by a loadable
    (hot-swappable) extension via {!install_mcast} instead. *)

val install_mcast :
  ?patch_cost:int -> server -> installer:string ->
  (Bytes.t * int, int) Spin_core.Dispatcher.handler
(** Installs the client fan-out handler on [Video.SendPacket] under
    [installer]. [patch_cost] is the per-client header-patch charge
    (default the cost table's [mcast_patch]) — a newer codec
    generation can install a cheaper one. Separate from
    {!create_server} so a hot swap can sweep one generation's handler
    and have the replacement install its own. *)

val load_frames :
  server -> count:int -> frame_bytes:int -> unit
(** Store synthetic video frames ("frame000"...) in the file system.
    Must run in strand context. *)

val add_client : server -> Ip.addr -> unit
(** Registers a client with the multicast extension. *)

val client_count : server -> int

val send_packet_event :
  server -> (Bytes.t * int, int) Spin_core.Dispatcher.event
(** [Video.SendPacket] carries (payload, sequence); the result is the
    number of clients reached (handler results are summed). *)

val stream :
  server -> fps:int -> duration_s:float -> unit
(** Stream frames at [fps]; runs in the calling strand, sleeping
    between frames. Frames come through the server's object cache, so
    the first pass over the clip pays the disk and the steady state
    streams from memory. *)

val packets_sent : server -> int

val server_busy_cycles : server -> int
(** CPU cycles the server spent producing the stream (fetch, protocol
    graph, multicast transmits) — the numerator of Figure 6's
    utilization. *)

val frames_streamed : server -> int

type client

val create_client : Host.t -> port:int -> client
(** Installs the in-kernel decompress-and-display extension. *)

val frames_displayed : client -> int

val bytes_displayed : client -> int

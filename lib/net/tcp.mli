(** TCP, as a SPIN extension.

    A real — though deliberately lean — TCP: three-way handshake,
    cumulative acknowledgements, Go-Back-N retransmission with a
    bounded retry count, fixed-size windows, in-order delivery, and
    FIN/ACK teardown. (The paper borrows the DEC OSF/1 TCP engine and
    asserts its safety; we build our own, which also plays that
    "asserted safe" role in the assembled kernel.)

    Like the paper's stack, the module owns [TCP.PacketArrived] and
    demultiplexes to connections with guards. Blocking operations
    ([connect], [read]) must run in strand context. *)

type t

type conn

type state =
  | Closed
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait
  | Close_wait
  | Last_ack
  | Time_wait

val state_to_string : state -> string

val header_bytes : int

val create :
  Spin_machine.Machine.t -> Spin_sched.Sched.t -> Spin_core.Dispatcher.t ->
  Ip.t -> t

val add_demux_filter : t -> (dport:int -> bool) -> unit
(** Stack a guard on the engine's demultiplexer: segments for which
    [claimed] is true are invisible to this TCP (no RSTs, no
    delivery). The Forward extension uses this to take over a port
    (paper, section 3.2: handlers stack additional guards). *)

val listen : t -> port:int -> on_accept:(conn -> unit) -> unit
(** Raises [Invalid_argument] if the port already has a listener. *)

val connect : t -> dst:Ip.addr -> dst_port:int -> conn option
(** Active open; blocks the calling strand until established, or
    [None] after the handshake retries give out. *)

val send : t -> conn -> Bytes.t -> unit
(** Queues the data as one run of the send stream; transmission
    respects the window and retransmits on timeout. No-op on a closed
    connection.

    Application hand-off: the data is copied once (charged) into the
    run's private buffer of MSS-sized chunks, each with a
    [Pkt.default_headroom]-byte gap in front. No segment is stored or
    allocated: its sequence number, chunk and length are computed from
    its run, on first transmission and on Go-Back-N retransmission
    alike. A routed segment goes out in one of the engine's frames,
    re-aimed at its chunk, with the TCP, IP and link headers pushed
    into the gap, so the host's only other copy of the payload is the
    NIC's. The gaps only ever hold headers, so a retransmission
    rewrites them and the payload stays as sent. The caller keeps
    ownership of [data] and may reuse it immediately. *)

val on_receive : conn -> (Bytes.t -> unit) -> unit
(** In-order delivery callback (replaces blocking reads when set).
    The callback receives a private copy (the receive path's single
    charged copy, out of the NIC frame) and owns it. *)

val read : t -> conn -> Bytes.t
(** Blocks the calling strand until data arrives; empty bytes on a
    connection that closed. The returned bytes are the caller's own
    (copied out of the frames at reassembly). *)

val close : t -> conn -> unit
(** Sends FIN; teardown completes asynchronously. *)

val state : conn -> state

type stats = {
  mutable segments_sent : int;
  mutable segments_received : int;
  mutable retransmits : int;
  mutable resets : int;
  mutable accepted : int;
}

val stats : t -> stats

(** Network interface models.

    Three interfaces from the paper:
    - [Lance]: 10 Mb/s Ethernet, DMA-based (bus master), 1500-byte MTU.
    - [Fore_atm]: FORE TCA-100 155 Mb/s ATM (9180-byte AAL5 MTU),
      *programmed I/O* — the CPU moves every word, which caps usable
      bandwidth near 53 Mb/s and burns sender and receiver cycles
      (paper section 5).
    - [T3]: the experimental 45 Mb/s DMA interface used in Figure 6
      (1500-byte frames).

    A PIO interface charges CPU cycles per 32-bit word on both
    transmit and receive; DMA interfaces charge only a fixed setup.
    Received frames queue in a 64-frame receive ring and raise the
    NIC's interrupt line; a frame that finds the ring full is dropped,
    its buffer handed back to the link, and counted in {!rx_dropped}. *)

type kind = Lance | Fore_atm | T3

type t

val create : Sim.t -> Intr.t -> line:int -> kind:kind -> t

val kind : t -> kind

val kind_name : kind -> string

val line : t -> int

val mtu : t -> int

val link_mbps : kind -> float
(** Line rate to configure the attached {!Link} with. *)

val attach : t -> Link.t -> Link.endpoint -> unit
(** Plug the NIC into one end of a link. *)

val transmit : t -> off:int -> len:int -> Bytes.t -> bool
(** Send the frame at [frame[off, off+len)]: charges the I/O-model
    cost and copies the frame into one of the link's frame buffers
    (see {!Link.buffer}), which the link carries to the peer. The DMA
    out of host memory is a true copy, so a delivered frame never
    aliases the sender's buffers; once warm, the buffer is a recycled
    one and the copy allocates nothing.
    [false] if unplugged or larger than the MTU (+ link-level header
    allowance of 48 bytes). *)

val rx_pending : t -> bool
(** Whether the receive ring holds a frame. *)

val rx_length : t -> int
(** The length of the oldest received frame, the one {!receive} takes
    next. Raises [Invalid_argument] unless {!rx_pending}. *)

val receive : t -> Bytes.t
(** Driver side: take the oldest received frame's buffer, paying the
    I/O-model receive cost. The frame is its first {!rx_length} bytes;
    the rest of the buffer is stale. The buffer is lent: the driver
    hands it back with {!release} once the frame is consumed, or keeps
    it and lets the collector have it. Raises [Invalid_argument]
    unless {!rx_pending}. *)

val release : t -> Bytes.t -> unit
(** Hands a buffer {!receive} returned back to the link's free list,
    for the next transmitted frame. Nothing may read or keep it
    afterwards. *)

val rx_dropped : t -> int

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
    NIC's interrupt line; a frame that finds the ring full is dropped
    and counted in {!rx_dropped}. *)

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
    cost and hands a device-made copy to the link. The DMA out of host
    memory is a true copy, so a delivered frame never aliases the
    sender's buffers.
    [false] if unplugged or larger than the MTU (+ link-level header
    allowance of 48 bytes). *)

val rx_pending : t -> bool
(** Whether the receive ring holds a frame. *)

val receive : t -> Bytes.t
(** Driver side: take the oldest received frame, paying the I/O-model
    receive cost. Raises [Invalid_argument] unless {!rx_pending}. *)

val rx_dropped : t -> int

val frames_tx : t -> int

val frames_rx : t -> int

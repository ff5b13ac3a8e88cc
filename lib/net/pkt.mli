(** Zero-copy packet buffers.

    A packet is an sk_buff-style {e view}: one backing byte buffer
    allocated with headroom, and a mutable [off, off+len) live window
    over it. A sending layer {!reserve}s its header in the headroom
    and writes it in place; a receiving layer {!drop}s its header by
    advancing the offset. Neither direction copies the
    payload — the bytes handed up through ethernet → ip → udp/tcp are
    the same buffer the NIC received (the paper's packets are "pushed
    through the protocol graph by events and pulled by handlers",
    at hardware cost).

    {2 Aliasing and ownership invariants}

    - {!of_frame}, {!sub}, {!drop} and {!truncate} all {e alias} the
      backing buffer; {!of_payload} and {!contents} are the only
      copying operations.
    - A received packet is {b lent} to its receive handlers for the
      duration of the dispatch, and no longer: its buffer is one of
      the link's frame buffers, which the driver hands back when the
      raise returns and the device then fills with a later frame
      (unless an asynchronous handler started during the raise; that
      buffer is never reused). During the dispatch the payload region
      must be treated {b read-only} — other handlers on the same event
      hold views into the same buffer. The {e headroom} (the consumed
      headers below [off]) is scratch space: echoing a packet by
      pushing fresh headers into it is legal and is how the stack
      achieves copy-free forwarding.
    - Transmitting a packet ({!Netif.transmit}) transfers ownership to
      the driver; the caller must not touch buffer or view afterwards.
      The NIC performs the single true copy (the device DMA) when the
      frame crosses onto the wire, so received frames never alias a
      remote sender's memory, and a sender may {!aim} the same record
      at its next frame once [Ip.send] has returned. A loopback
      [Ip.send] has no device: the receiver gets the sender's packet
      itself, and may keep it. A sender therefore hands it a fresh
      view, never a record it will re-aim. For TCP that is a view of
      a chunk of the connection's send buffer, which a retransmission
      reads again, which is why the read-only payload rule matters
      there.
    - To retain packet data beyond the current dispatch, take its
      {!contents} (materialized bytes) during it: a view kept past the
      dispatch reads whatever frame the buffer holds next.

    {2 Headroom}

    Buffers allocated by this stack reserve 48 bytes (link 2 + IP 12 +
    the largest transport header 16, plus slack for extension framing)
    in front of the payload; a received frame's consumed headers play
    the same role. A {!reserve} beyond the available headroom does not
    fail — it falls back to reallocating the backing buffer with a
    fresh 48 bytes (one copy), so correctness never depends on headroom
    arithmetic, except on a {!sub} view whose headroom is someone
    else's bytes. Hot paths size their headroom so the fallback
    never runs. *)

type t

val default_headroom : int
(** 48: the headroom {!alloc} reserves, and the gap [Tcp.send] leaves
    in front of every chunk of its send buffer. *)

val alloc : int -> t
(** [alloc n] is a fresh packet of [n] uninitialized payload bytes
    with {!default_headroom} reserved in front.
    The canonical transmit-side constructor: fill the payload once,
    then let each layer push its header for free. *)

val of_payload : Bytes.t -> t
(** Copies [b] into a fresh buffer with headroom; the caller keeps
    ownership of [b]. One copy — the charged "application hand-off"
    constructor. *)

val of_frame : Bytes.t -> len:int -> t
(** [of_frame b ~len] aliases the first [len] bytes of [b] (off = 0,
    no headroom): the receive path wraps the frame buffer the NIC
    wrote without copying, and the bytes past [len] are not the
    packet's. Raises [Invalid_argument] if [len] is outside [b]. *)

val empty : unit -> t
(** A fresh zero-length packet (no backing storage). *)

val length : t -> int

val headroom : t -> int
(** Bytes available in front of the live window for {!reserve}. *)

val reserve : t -> int -> int
(** [reserve t n] prepends [n] header bytes in the headroom and returns
    their offset in {!buffer}, so encoders write fields in place
    without an intermediate header allocation — O(header), not
    O(packet). Write all [n] bytes immediately. Allocates nothing
    unless the headroom is exhausted; then it falls back to one
    realloc. *)

val buffer : t -> Bytes.t
(** The backing buffer; the live window is its [length t] bytes from
    offset [headroom t]. A {!reserve} may replace it, so
    read it after them. The region outside the window is not the
    caller's. *)

val drop : t -> int -> unit
(** Consume the first [n] bytes by advancing the view; nothing is
    copied. Raises [Invalid_argument] if the packet is shorter. *)

val truncate : t -> int -> unit
(** Shrink the view to its first [n] bytes (drops link-layer padding
    after the declared datagram length). *)

val sub : t -> pos:int -> len:int -> t
(** An aliasing view of a sub-range: shares the backing buffer, so
    writes through either view are visible in both. Used to hand a
    transport payload upward.

    A view's headroom is every byte in front of it in the backing
    buffer, so a {!reserve} onto a view writes there, over whatever
    those bytes hold. *)

val aim : t -> Bytes.t -> off:int -> len:int -> unit
(** [aim t buf ~off ~len] re-aims [t] at the [len] bytes from [off]
    in [buf], with the [off] bytes in front as its headroom. Nothing
    is allocated: a sender that frames many packets in turn, each dead
    once the driver has copied it, re-aims one record rather than
    building a view per packet. As with {!sub}, the headroom is
    someone's bytes: [Tcp.send] leaves a private
    {!default_headroom}-byte gap in front of each chunk of its send
    buffer, so the headers pushed onto a frame aimed at a chunk land
    on no other chunk's payload. Raises [Invalid_argument] if the
    range is outside [buf]. *)

val view : t -> Bytes.t * int * int
(** [(buf, off, len)] — the raw window, for blitting at true copy
    points. The region outside [off, off+len) is not the caller's. *)

(** {2 Bounds-checked accessors, relative to the view} *)

val get_u8 : t -> int -> int
val get_u16_le : t -> int -> int
val get_u32_le : t -> int -> int
val get_i64_le : t -> int -> int64
val set_u8 : t -> int -> int -> unit

val ebc_payload : t Spin_core.Ebc.payload
(** The live window as a bytecode payload, read in place: the layout
    of an event whose argument is a packet. *)

val contents : t -> Bytes.t
(** The live window as fresh bytes (a copy). *)

val to_string : t -> string

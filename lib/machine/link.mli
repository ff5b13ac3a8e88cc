(** A point-to-point wire between two network interfaces.

    The link models serialization time (frame bits over the line
    rate), propagation latency, and wire occupancy: a frame queued
    while the wire is busy waits for it to drain. Each direction is
    independent (full duplex).

    The link also owns its devices' frame buffers: a free list of
    buffers, each as long as the largest frame an attached device
    sends. A sending device copies its frame into one ({!buffer}), the
    wire carries the buffer and the frame's length, and the receiving
    device's driver hands it back ({!release}) once the frame is
    consumed. Warm, a frame's trip allocates nothing. *)

type t

type endpoint = A | B

val create : Sim.t -> mbps:float -> unit -> t
(** A wire of [mbps] line rate and 5 us propagation delay. *)

val set_receiver :
  t -> endpoint -> max_frame:int -> (Bytes.t -> int -> unit) -> unit
(** Installs the delivery callback for frames arriving *at* that
    endpoint: it gets the frame's buffer and its length, and the
    buffer is the callback's until it {!release}s it. [max_frame] is
    the largest frame the endpoint's device sends; every buffer is as
    long as the larger of both ends'. Set both ends before the first
    {!buffer}: a buffer keeps the length it was made with. *)

val buffer : t -> Bytes.t
(** A frame buffer from the free list, or a fresh one when the list is
    empty. *)

val release : t -> Bytes.t -> unit
(** Hands a buffer back to the free list. Its holder must not touch it
    afterwards: the next {!buffer} reuses it. *)

val send : t -> from:endpoint -> Bytes.t -> len:int -> unit
(** Transmits the frame in the first [len] bytes of a {!buffer} from
    one endpoint to the other. The wire holds the buffer until it
    arrives; a frame lost on the wire or at an unplugged end goes back
    to the free list. *)

val set_loss : t -> every:int -> unit
(** Failure injection: drop every [every]-th frame (0 disables).
    Deterministic, so tests reproduce. *)

val frames_dropped : t -> int

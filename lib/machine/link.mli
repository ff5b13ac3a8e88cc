(** A point-to-point wire between two network interfaces.

    The link models serialization time (frame bits over the line
    rate), propagation latency, and wire occupancy: a frame queued
    while the wire is busy waits for it to drain. Each direction is
    independent (full duplex). *)

type t

type endpoint = A | B

val create : Sim.t -> mbps:float -> unit -> t
(** A wire of [mbps] line rate and 5 us propagation delay. *)

val set_receiver : t -> endpoint -> (Bytes.t -> unit) -> unit
(** Installs the delivery callback for frames arriving *at* that
    endpoint. *)

val send : t -> from:endpoint -> Bytes.t -> unit
(** Transmits a frame from one endpoint to the other. *)

val set_loss : t -> every:int -> unit
(** Failure injection: drop every [every]-th frame (0 disables).
    Deterministic, so tests reproduce. *)

val frames_dropped : t -> int

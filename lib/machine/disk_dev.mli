(** A simulated SCSI disk (an HP C2247-300: ~10 ms average seek,
    5400 rpm, ~2.5 MB/s sustained transfer).

    A request is one block, read into or written from a block-sized
    buffer its submitter posts. Requests queue FIFO inside the device;
    each completion posts the disk's interrupt line and records the
    request's block for the interrupt handler to collect. The device
    touches the buffer only at completion, copying the stored block
    into it or storing it, and keeps no copy of its own. Sequential
    requests skip the seek. A request submitted to an idle device
    allocates nothing. *)

type t

val block_size : int
(** 512 bytes. *)

val create : Sim.t -> Intr.t -> line:int -> blocks:int -> t

val line : t -> int

val submit : t -> write:bool -> block:int -> Bytes.t -> unit
(** [submit t ~write ~block buf] queues a request on [block]: a read
    fills [buf], a write stores it. [buf] must be exactly one block
    long, and the submitter leaves it alone until the request
    completes. *)

val take_completion : t -> int
(** The block of the oldest finished request not yet collected,
    [-1] when none; the interrupt handler's side. *)

val in_flight : t -> int

val reads : t -> int

val writes : t -> int

(** A simulated SCSI disk (an HP C2247-300: ~10 ms average seek,
    5400 rpm, ~2.5 MB/s sustained transfer).

    Requests queue FIFO inside the device; each completion posts the
    disk's interrupt line and records the request's block for the
    interrupt handler to collect. A read copies the stored block straight into
    the buffer its reader posted. Sequential requests skip the seek.
    A request submitted to an idle device allocates nothing. *)

type t

val block_size : int
(** 512 bytes. *)

val create : Sim.t -> Intr.t -> line:int -> blocks:int -> t

val line : t -> int

val submit_read : t -> block:int -> Bytes.t -> pos:int -> unit
(** [submit_read t ~block buf ~pos] queues a read of one block into
    [buf] at [pos]; the device writes it there when the request
    completes, so the reader must not use those bytes before. *)

val submit_write : t -> block:int -> Bytes.t -> unit
(** Queue a write of a copy of the data; its length must be a multiple
    of the block size. *)

val take_completion : t -> int
(** The first block of the oldest finished request not yet collected,
    [-1] when none; the interrupt handler's side. *)

val in_flight : t -> int

val reads : t -> int

val writes : t -> int

(** A simulated SCSI disk (an HP C2247-300: ~10 ms average seek,
    5400 rpm, ~2.5 MB/s sustained transfer).

    Requests queue FIFO inside the device; each completion posts the
    disk's interrupt line and parks a completion record for the driver
    to collect. Sequential requests skip the seek. *)

type t

type completion =
  | Read_done of { block : int; data : Bytes.t }
  | Write_done of { block : int }

val block_size : int
(** 512 bytes. *)

val create : Sim.t -> Intr.t -> line:int -> blocks:int -> t

val line : t -> int

val submit_read : t -> block:int -> count:int -> unit
(** Queue a read of [count] blocks starting at [block]. *)

val submit_write : t -> block:int -> Bytes.t -> unit
(** Queue a write; the data length must be a multiple of the block
    size. *)

val take_completion : t -> completion option
(** Driver side: collect a finished request (typically from the
    interrupt handler). *)

val in_flight : t -> int

val reads : t -> int

val writes : t -> int

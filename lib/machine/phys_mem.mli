(** Simulated physical memory.

    Frame storage is allocated lazily; copies into and out of memory
    charge the hardware copy cost. Frame *allocation policy* lives in
    the SPIN physical address service, not here. *)

type t

val create : Clock.t -> frames:int -> t
(** [create clock ~frames] is a memory of [frames] 8 KB frames. *)

val frames : t -> int

val bytes_total : t -> int

val frame_bytes : t -> int -> Bytes.t
(** Backing store of a frame; raises [Invalid_argument] on a bad
    frame number. *)

val zero_frame : t -> int -> unit
(** Clears a frame, charging the copy cost. *)

val read_into : t -> pa:int -> len:int -> Bytes.t -> pos:int -> unit
(** [read_into t ~pa ~len buf ~pos] copies [len] bytes out of physical
    memory (may span frames) into [buf] at [pos]; charges copy cost.
    Allocates nothing. *)

val read_word : t -> pa:int -> int64
(** Unaligned-tolerant 8-byte load, read in place unless the word
    straddles two frames; charges nothing beyond the caller's
    accounting (word access cost is part of instruction charges). *)

val write_word : t -> pa:int -> int64 -> unit

(** A simulated serial console: buffered output, interrupt-driven input. *)

type t

val create : Sim.t -> Intr.t -> line:int -> t

val line : t -> int

val putc : t -> char -> unit
(** Output one character; charges a small device-register cost. *)

val puts : t -> string -> unit

val output : t -> string
(** Everything written since boot. *)

val inject_input : t -> string -> unit
(** Models typing: queues characters and posts the console interrupt
    once per injection. Input beyond the 256-byte ring is dropped. *)

val getc : t -> char option
(** Driver side: pop one input character. *)

val dropped : t -> int

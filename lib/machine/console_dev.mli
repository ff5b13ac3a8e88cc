(** A simulated serial console: buffered output. *)

type t

val create : Sim.t -> t

val puts : t -> string -> unit
(** Charges a small device-register cost per character. *)

val output : t -> string
(** Everything written since boot. *)

(** Active Messages (von Eicken et al.), as a SPIN extension: the
    message carries the index of the handler that consumes it, and the
    handler runs directly from the protocol thread — no unnecessary
    scheduling between wire and computation. *)

type t

val proto : int
(** The IP protocol number the extension claims. *)

val create : Spin_machine.Machine.t -> Ip.t -> t

val register : t -> (src:Ip.addr -> Bytes.t -> unit) -> int
(** Returns the handler index to name in messages. *)

val send : t -> dst:Ip.addr -> handler:int -> Bytes.t -> bool

type stats = { mutable delivered : int; mutable dropped : int }

val stats : t -> stats

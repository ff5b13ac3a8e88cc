(** ICMP echo (the "Ping" box of Figure 5).

    The module attaches to IP protocol 1, answers echo requests, and
    routes echo replies to per-sequence callbacks. *)

type t

val create : Ip.t -> t

val ping :
  t -> dst:Ip.addr -> seq:int -> (unit -> unit) -> bool
(** Sends an echo request with a 16-byte payload; the callback runs when the matching reply
    arrives. [false] if the request could not be sent. *)

(** Fixed-capacity circular buffers.

    Device transmit/receive queues and the console input queue are
    rings: producers fail (rather than block or grow) when the ring
    is full, modelling bounded hardware queues that drop on overflow. *)

type 'a t

val create : int -> 'a t
(** [create n] is an empty ring holding at most [n] elements.
    Raises [Invalid_argument] if [n <= 0]. *)

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> bool
(** [push t v] appends [v]; [false] (and no change) when full. *)

val pop : 'a t -> 'a option
(** [pop t] removes and returns the oldest element. *)

val iter : ('a -> unit) -> 'a t -> unit
(** [iter f t] applies [f] oldest-first. *)

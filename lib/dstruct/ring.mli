(** Growable circular FIFOs that allocate nothing per element.

    The frame path queues through rings: each direction of a [Link]'s
    wire, the [Nic]'s receive ring and [Netif]'s per-shard queues. A
    [Link]'s free list of frame buffers is a ring used as a stack
    ({!pop}).
    The slots are a plain array, so an element is stored in place
    with no option box and no list cell; a taken slot is refilled
    with the ring's [dummy] so it pins nothing. A full ring doubles
    its array. The ring itself never refuses an element: a bounded
    hardware queue checks {!length} first, as [Nic.attach]'s receiver
    does for its 64-frame receive ring, dropping and counting the
    frame past the bound. *)

type 'a t

val create : dummy:'a -> int -> 'a t
(** [create ~dummy n] is an empty ring with room for [n] elements
    before it first grows; [dummy] fills every free slot.
    Raises [Invalid_argument] if [n <= 0]. *)

val is_empty : 'a t -> bool

val length : 'a t -> int

val add : 'a t -> 'a -> unit
(** [add t v] appends [v], doubling the slots first when they are all
    in use. *)

val take : 'a t -> 'a
(** [take t] removes and returns the oldest element.
    Raises [Invalid_argument] if [t] is empty. *)

val pop : 'a t -> 'a
(** [pop t] removes and returns the newest element, so a ring that
    only {!add}s and {!pop}s is a stack.
    Raises [Invalid_argument] if [t] is empty. *)

val peek : 'a t -> 'a
(** [peek t] is the oldest element, left in place.
    Raises [Invalid_argument] if [t] is empty. *)

val iter : ('a -> unit) -> 'a t -> unit
(** [iter f t] applies [f] oldest-first. *)

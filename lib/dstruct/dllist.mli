(** Doubly-linked lists with O(1) insertion, removal and node handles.

    The kernel uses these for run queues, wait queues and cache chains.
    A node handle returned by {!push_back} can be removed
    from its list in constant time; removing a node twice is a no-op. *)

type 'a t
(** A mutable doubly-linked list. *)

type 'a node
(** A handle to an element stored in a list. *)

val create : unit -> 'a t
(** [create ()] is a fresh empty list. *)

val is_empty : 'a t -> bool

val length : 'a t -> int
(** [length t] is the number of elements; O(1). *)

val push_back : 'a t -> 'a -> 'a node
(** [push_back t v] appends [v] and returns its handle. *)

val pop_front : 'a t -> 'a option
(** [pop_front t] removes and returns the first element. *)

val remove : 'a t -> 'a node -> unit
(** [remove t n] unlinks [n] from [t]. No-op if already removed.
    Raises [Invalid_argument] if [n] belongs to a different list. *)

val value : 'a node -> 'a
(** [value n] is the element carried by [n]. *)

val is_linked : 'a node -> bool
(** [is_linked n] is [true] while [n] is still in its list. *)

val first : 'a t -> 'a node option
val next : 'a node -> 'a node option
(** A walk that allocates nothing: both return options the list holds. *)

val to_list : 'a t -> 'a list
(** [to_list t] is the elements front to back. *)

(** Doubly-linked lists with O(1) insertion, removal and node handles.

    The kernel uses these for run queues, wait queues and cache chains.
    A node is linked into at most one list at a time, and may be
    unlinked and linked again, into the same list or another: a strand
    keeps one run-queue node and one wait node for its whole life.
    Linking, unlinking and popping allocate nothing; only {!node} (and
    so {!push_back}) does. *)

type 'a t
(** A mutable doubly-linked list. *)

type 'a node
(** A handle to an element, linked into one list or none. *)

val create : unit -> 'a t
(** [create ()] is a fresh empty list. *)

val node : 'a -> 'a node
(** [node v] is a fresh unlinked node carrying [v]. *)

val length : 'a t -> int
(** [length t] is the number of elements; O(1). *)

val link_back : 'a t -> 'a node -> unit
(** [link_back t n] appends [n]. Raises [Invalid_argument] if [n] is
    already linked, into [t] or another list. *)

val link_front : 'a t -> 'a node -> unit
(** [link_front t n] prepends [n]. Raises [Invalid_argument] if [n] is
    already linked. *)

val push_back : 'a t -> 'a -> 'a node
(** [push_back t v] appends a fresh node carrying [v] and returns it. *)

val pop_front : 'a t -> 'a node option
(** [pop_front t] unlinks the first node and returns it, in the
    option the list already held. *)

val remove : 'a t -> 'a node -> unit
(** [remove t n] unlinks [n] from [t]. No-op if [n] is not linked.
    Raises [Invalid_argument] if [n] is linked into a different list. *)

val value : 'a node -> 'a
(** [value n] is the element carried by [n]. *)

val is_linked : 'a node -> bool
(** [is_linked n] is [true] while [n] is in a list. *)

val first : 'a t -> 'a node option
val next : 'a node -> 'a node option
(** A walk that allocates nothing: both return options the list holds. *)

val to_list : 'a t -> 'a list
(** [to_list t] is the elements front to back. *)

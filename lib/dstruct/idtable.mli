(** Index tables for externalized references.

    A kernel service that passes a capability to user space hands out
    an index into a per-application table instead of the pointer
    itself (paper, section 3.1). Slots are recycled through a free
    list; stale indices return [None]. *)

type 'a t

val create : unit -> 'a t

val insert : 'a t -> 'a -> int
(** [insert t v] stores [v] and returns its externalized index. *)

val lookup : 'a t -> int -> 'a option
(** [lookup t i] recovers the value, or [None] for free/invalid slots. *)

val remove : 'a t -> int -> unit
(** [remove t i] frees slot [i]; later {!lookup}s return [None]. *)

val length : 'a t -> int
(** Number of live entries. *)

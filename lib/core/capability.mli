(** Capabilities: unforgeable references to kernel resources.

    In SPIN a capability *is* a type-safe pointer; here it is a value
    of an abstract type that only the owning service can mint. A
    capability can be revoked by its owner, after which dereferencing
    raises {!Revoked} — the analogue of the collector reclaiming a
    resource whose extension died.

    Revocation comes in two granularities. {!revoke} kills one
    capability. {!advance_epoch} kills a whole generation: every
    capability carries the epoch of its owner at mint time, and a
    dereference checks the mint epoch against the owner's current one.
    Hot-swapping an extension advances its epoch, so every reference
    the old instance handed out dies cleanly — a stale use raises the
    typed {!Revoked} fault (caught and counted by the dispatcher when
    it escapes a handler) instead of dangling into the retired domain (the
    Capstone / CapablePtrs discipline). *)

type 'a t

exception Revoked of string
(** Carries the owner and id of the dead capability, and for
    stale-epoch uses the mint vs current epoch. *)

val mint : owner:string -> 'a -> 'a t
(** [mint ~owner v] creates a capability for resource [v], stamped
    with [owner]'s current epoch. *)

val deref : 'a t -> 'a
(** Raises {!Revoked} if the capability was revoked or its mint epoch
    predates the owner's current epoch. *)

val deref_opt : 'a t -> 'a option
(** [None] for both revoked and stale-epoch capabilities. *)

val revoke : 'a t -> unit
(** Idempotent. *)

val is_valid : 'a t -> bool
(** False once revoked or stale. *)

val owner : 'a t -> string

val id : 'a t -> int
(** Unique across all capabilities in the process. *)

val epoch : 'a t -> int
(** The owner epoch this capability was minted under. *)

val advance_epoch : owner:string -> int
(** Start [owner]'s next epoch and return it. Every capability the
    owner minted before this call becomes stale: {!deref} raises
    {!Revoked}, {!is_valid} answers false. O(1) regardless of how
    many capabilities are outstanding. *)

val equal : 'a t -> 'a t -> bool

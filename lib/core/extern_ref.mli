(** Externalized references (paper, section 3.1).

    User-level code cannot be assumed type safe, so a kernel service
    never hands it a pointer; it hands an index into a
    per-application table of type-safe in-kernel references.
    Internalization checks both the index and the tag under which the
    reference was externalized.

    Each table also carries an epoch. References are stamped with the
    epoch at externalization, and {!advance_epoch} (called when the
    owning extension is hot-swapped) retires every earlier stamp in
    O(1): a stale index internalizes as [None] — dead, never dangling
    into the replaced instance. *)

type t
(** One table per application. *)

val create : unit -> t

val externalize : t -> 'a Univ.tag -> 'a -> int
(** Stores the reference, returning the external index to pass to
    user space. The entry is stamped with the table's current epoch. *)

val internalize : t -> 'a Univ.tag -> int -> 'a option
(** [None] for stale indices, forged indices, tag mismatches (an
    index externalized as one resource type cannot be internalized as
    another), and indices externalized under a retired epoch. *)

val release : t -> int -> unit

val epoch : t -> int
(** 0 at creation. *)

val advance_epoch : t -> int
(** Start the table's next epoch and return it. Every index
    externalized before this call becomes stale. *)

val live : t -> int

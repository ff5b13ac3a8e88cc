(** Int-keyed binary min-heap with pooled records: the discrete-event
    engine's deadline queue.

    Elements pop in ascending key order, insertion order among equal
    keys — the (deadline, insertion) order [Sched_fuzz] seed replay
    depends on. Keys are compared as ints, with no comparison closure.

    Records are recycled through a free pool, so a steady-state
    workload allocates nothing per {!add} or {!arm}. A freed record
    holds the [dummy] given at creation, never a removed value, so the
    queue pins nothing it no longer holds. An element that may be
    removed is inserted through a {!handle}, which carries its
    element's insertion number: removing a popped or removed element —
    even after its record has been reused — is a safe no-op rather
    than an ABA hazard. *)

type 'a t

type 'a handle
(** A reusable slot for one removable element of a heap at a time. *)

val create : dummy:'a -> 'a t
(** [create ~dummy] is an empty heap; [dummy] fills freed records. *)

val size : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> int -> 'a -> unit
(** [add t key v] inserts [v] at [key]; O(log n). *)

val handle : 'a t -> 'a handle
(** A handle for [t] with no element yet. *)

val arm : 'a t -> 'a handle -> int -> 'a -> unit
(** [arm t h key v] inserts [v] at [key] exactly as {!add} does (the
    next insertion number), and [h] now designates it. [h]'s previous
    element, if any, must be gone (popped or removed); raises
    [Invalid_argument] otherwise. *)

val min_key : 'a t -> int
(** The smallest key, [max_int] when empty; O(1). *)

val pop : 'a t -> 'a
(** [pop t] removes and returns the element with the smallest key,
    the earliest added among equals; O(log n).
    @raise Invalid_argument when empty. *)

val remove : 'a t -> 'a handle -> bool
(** [remove t h] deletes [h]'s element and frees its record now;
    [false] (and no effect) if it was already popped or removed.
    O(log n). *)

val mem : 'a handle -> bool
(** [mem h] is [true] while [h]'s element is still in its heap. *)

val pool_hits : 'a t -> int
(** Adds that reused a freed record. *)

val pool_misses : 'a t -> int
(** Adds that allocated a fresh record. *)

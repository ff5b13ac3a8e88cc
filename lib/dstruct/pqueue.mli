(** Int-keyed binary min-heap with pooled records: the discrete-event
    engine's deadline queue.

    Elements pop in ascending key order, insertion order among equal
    keys — the (deadline, insertion) order [Sched_fuzz] seed replay
    depends on. Keys are compared as ints, with no comparison closure.

    Records are recycled through a free pool, so a steady-state
    workload allocates only the handle per [add], and nothing per
    {!readd}. A freed record holds
    the [dummy] given at creation, never a removed value, so the queue
    pins nothing it no longer holds. Handles carry the insertion
    number they were born with, which makes removing a popped or
    removed element — even after its record has been reused — a safe
    no-op rather than an ABA hazard. *)

type 'a t

type 'a handle
(** An element added to a heap, usable for removal. *)

val create : dummy:'a -> 'a t
(** [create ~dummy] is an empty heap; [dummy] fills freed records. *)

val size : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> int -> 'a -> 'a handle
(** [add t key v] inserts [v] at [key]; O(log n). *)

val min_key : 'a t -> int
(** The smallest key, [max_int] when empty; O(1). *)

val pop : 'a t -> 'a
(** [pop t] removes and returns the element with the smallest key,
    the earliest added among equals; O(log n).
    @raise Invalid_argument when empty. *)

val readd : 'a t -> 'a handle -> int -> 'a -> unit
(** [readd t h key v] inserts [v] at [key] through [h] itself, exactly
    as {!add} would (the next insertion number), and allocates nothing
    once the pool is warm: [h] now designates the new element. [h]'s
    previous element must be gone (popped or removed); raises
    [Invalid_argument] otherwise. *)

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

(** Hierarchical timer wheel (Varghese & Lauck scheme 6).

    The discrete-event engine's deadline structure: four levels of 256
    slots, each spanning a power of two of ticks, cover the next 2^32
    ticks, so [add] and [cancel] are O(1) — an intrusive
    doubly-linked unlink, no heap sift — and advancing the wheel
    cascades higher-level slots down as their windows open. Deadlines beyond the wheel's range wait in
    an overflow {!Pqueue} and migrate in lazily.

    Firing preserves exactly the order a binary heap with an insertion
    sequence tie-break would produce: ascending deadline, FIFO among
    equal deadlines. [Sched_fuzz] seed replay depends on this being
    bit-identical to the old heap engine.

    Entry records are recycled through a free list, so a steady-state
    timer workload allocates only the caller's handle per event.
    Handles carry the entry's birth sequence number, which makes
    cancelling an already-fired (and possibly recycled) handle a safe
    no-op rather than an ABA hazard. *)

type 'a t

type 'a handle
(** A scheduled entry, usable for cancellation. Stale handles (fired,
    cancelled, or recycled) are detected and ignored. *)

val create : ?start:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] is an empty wheel at time [start] (default 0).
    [dummy] is stored in freed entries so the pool never pins a dead
    payload against the GC. *)

val now : 'a t -> int
(** The wheel's current time, advanced by {!advance}. *)

val size : 'a t -> int
(** Live entries (scheduled or due-but-unpopped); O(1). *)

val add : 'a t -> time:int -> 'a -> 'a handle
(** [add t ~time v] schedules [v] at absolute [time]. Past deadlines
    ([time <= now t]) clamp to "due immediately". *)

val cancel : 'a t -> 'a handle -> bool
(** [cancel t h] eagerly unlinks [h]'s entry and recycles it;
    [false] (and no effect) if it already fired or was cancelled. *)

val is_pending : 'a handle -> bool
(** [true] while the handle's entry is still scheduled or due. *)

val advance : 'a t -> int -> unit
(** [advance t time] moves the wheel to [time] (no-op when not ahead
    of [now t]), collecting every entry with a deadline [<= time]
    into the due queue in (deadline, insertion) order. O(1) when
    nothing becomes due. *)

val pop_due : 'a t -> 'a option
(** Next due entry's payload, in firing order; [None] when nothing is
    due at the current time. *)

val next_deadline : 'a t -> int option
(** Earliest pending deadline (which may be [<= now t] if due entries
    await popping); [None] when empty. *)

type pool_stats = {
  pool_hits : int;     (** entries recycled from the free list *)
  pool_misses : int;   (** entries freshly allocated *)
}

val pool_stats : 'a t -> pool_stats

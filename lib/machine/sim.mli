(** Discrete-event engine.

    Devices and timers schedule callbacks at absolute virtual times.
    Events become *due* when the clock passes their deadline; they are
    fired from a clock hook, which models interrupt delivery at the
    next instruction boundary. When no strand is runnable the machine
    idles by skipping the clock to the next deadline.

    The deadline structure is one {!Spin_dstruct.Pqueue}, a binary
    min-heap: events fire in ascending deadline order, FIFO among
    equal deadlines, which seeded schedule-fuzz replays depend on.
    Scheduling and cancellation are O(log n) in the live events (a few
    dozen at most in any measured workload), the next deadline is the
    heap's top, event records are recycled through a free pool, and
    cancellation unlinks eagerly — a cancelled event costs nothing at
    its deadline and pins nothing until then. *)

type t

type handle
(** A scheduled event, usable for cancellation and re-arming. Stale
    handles (fired or cancelled) are detected; cancelling one is a
    safe no-op even after the event record has been recycled. A timer
    that fires again and again keeps one handle and {!rearm}s it. *)

val create : Clock.t -> t

val clock : t -> Clock.t

val at : t -> int -> (unit -> unit) -> handle
(** [at t time f] schedules [f] at absolute cycle [time] (clamped to
    now). *)

val after : t -> int -> (unit -> unit) -> handle
(** [after t delta f] schedules [f] [delta] cycles from now. *)

val after_us : t -> float -> (unit -> unit) -> handle

val cancel : t -> handle -> unit
(** Cancels a pending event; no-op if already fired or cancelled.
    The event is unlinked immediately: it stops counting towards
    {!pending} and its closure is released to the GC now, not at its
    deadline. *)

val rearm : t -> handle -> int -> (unit -> unit) -> unit
(** [rearm t h delta f] schedules [f] [delta] cycles from now through
    [h] itself: it cancels [h]'s event if still pending (counted as a
    {!cancel}), then schedules exactly as {!after} does, FIFO after
    every event already scheduled at the same time. It allocates
    nothing once the event pool is warm. *)

val rearm_us : t -> handle -> float -> (unit -> unit) -> unit
(** {!rearm} in virtual microseconds, as {!after_us}. *)

val scheduled : handle -> bool
(** Whether [h]'s event is pending: armed, and neither fired nor
    cancelled. *)

val pending : t -> int
(** Number of scheduled events not yet fired; O(1). *)

type stats = {
  live : int;          (** events scheduled and not yet fired *)
  fired : int;         (** events fired since boot *)
  cancelled : int;     (** events eagerly unlinked by {!cancel} *)
  pool_hits : int;     (** event records recycled from the pool *)
  pool_misses : int;   (** event records freshly allocated *)
}

val stats : t -> stats

val idle_step : t -> bool
(** [idle_step t] skips the clock to the next deadline so its events
    fire; [false] when nothing is pending. *)

val run : t -> unit
(** [idle_step] until the queue drains. *)

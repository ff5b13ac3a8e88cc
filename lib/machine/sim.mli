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
    its deadline and pins nothing until then.

    There are two ways to schedule: a fire-and-forget event ({!at},
    {!after}) returns nothing, and a cancellable one goes through a
    {!timer} that its owner builds once and re-arms. Neither allocates
    once the event pool is warm, beyond the action itself. *)

type t

type timer
(** A cancellable event slot. Its owner builds it once and {!arm}s it
    for each firing; the action is passed at each arming and held only
    by the queued event, so a fired or cancelled timer pins nothing.
    Cancelling a timer that is not pending is a safe no-op. *)

val create : Clock.t -> t

val clock : t -> Clock.t

val at : t -> int -> (unit -> unit) -> unit
(** [at t time f] schedules [f] at absolute cycle [time] (clamped to
    now). The event cannot be cancelled; use a {!timer} for that. *)

val after : t -> int -> (unit -> unit) -> unit
(** [after t delta f] schedules [f] [delta] cycles from now. *)

val timer : t -> timer
(** A timer of [t], not yet armed. *)

val arm : t -> timer -> int -> (unit -> unit) -> unit
(** [arm t tm delta f] schedules [f] [delta] cycles from now through
    [tm]: it cancels [tm]'s event if still pending (counted as a
    {!cancel}), then schedules exactly as {!after} does, FIFO after
    every event already scheduled at the same time. It allocates
    nothing once the event pool is warm. *)

val arm_us : t -> timer -> float -> (unit -> unit) -> unit
(** {!arm} in virtual microseconds. *)

val cancel : t -> timer -> unit
(** [cancel t tm] cancels [tm]'s pending event; no-op if it already fired, was
    cancelled or was never armed. The event is unlinked immediately:
    it stops counting towards {!pending} and its closure is released
    to the GC now, not at its deadline. *)

val scheduled : timer -> bool
(** Whether the timer's event is pending: armed, and neither fired
    nor cancelled. *)

val pending : t -> int
(** Number of scheduled events not yet fired; O(1). *)

type stats = {
  live : int;          (** events scheduled and not yet fired *)
  fired : int;         (** events fired since boot *)
  cancelled : int;     (** events eagerly unlinked by {!cancel} or {!arm} *)
  pool_hits : int;     (** event records recycled from the pool *)
  pool_misses : int;   (** event records freshly allocated *)
}

val stats : t -> stats

val idle_step : t -> bool
(** [idle_step t] skips the clock to the next deadline so its events
    fire; [false] when nothing is pending. *)

val run : t -> unit
(** [idle_step] until the queue drains. *)

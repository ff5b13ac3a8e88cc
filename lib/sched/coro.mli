(** One-shot coroutines over OCaml effect handlers.

    A coroutine is the execution context of a kernel strand: it runs
    until it suspends (yield or block) or finishes. The scheduler owns
    resumption. Suspending from outside a running coroutine is a
    programming error and raises [Effect.Unhandled]. *)

type t

type reason = Yielded | Blocked

type outcome =
  | Suspended of reason
  | Done
  | Failed of exn

val create : (unit -> unit) -> t

val run : t -> outcome
(** Starts or resumes the coroutine until its next suspension point.
    Raises [Invalid_argument] if it is already running or finished.
    A running coroutine may run another; a suspension inside the
    inner one returns to the outer one's [run]. *)

val suspend : reason -> unit
(** Called from inside a running coroutine. *)

val alive : t -> bool

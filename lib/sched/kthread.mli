(** In-kernel threads: the trusted thread package exporting the
    Modula-3 thread interface (paper, section 4.2).

    Built directly on strands and the global scheduler. Synchronization
    follows Modula-3: mutexes and condition variables (Mesa semantics:
    waiters re-acquire and should re-check). *)

type t
(** A kernel thread handle. *)

val fork : Sched.t -> ?name:string -> (unit -> unit) -> t
(** Creates and schedules a kernel thread. *)

val join : Sched.t -> t -> unit
(** Blocks the calling thread until the target terminates. Immediate
    if it already has. *)

val failure : t -> exn option
(** The exception that killed the thread, if any — extension failures
    are isolated, not fatal to the kernel (paper, section 4.3). *)

module Mutex : sig
  type m

  val create : unit -> m

  val lock : Sched.t -> m -> unit

  val unlock : Sched.t -> m -> unit
  (** Raises [Invalid_argument] if the caller does not hold it. *)

  val with_lock : Sched.t -> m -> (unit -> 'a) -> 'a
end

module Condition : sig
  type c

  val create : unit -> c

  val wait : Sched.t -> Mutex.m -> c -> unit
  (** Atomically releases the mutex and blocks; re-acquires before
      returning. *)

  val signal : Sched.t -> c -> unit
  (** Wakes one waiter (no-op when none). *)

  val broadcast : Sched.t -> c -> unit

  val waiters : c -> int
end

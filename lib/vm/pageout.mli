(** The pageout daemon: self-paging ahead of demand (Nemesis-style).

    A low-priority strand watches the physical address service's free
    pool. When it sinks under the low-water mark, the daemon releases
    pages by forcing the reclamation protocol until the pool recovers
    to the high-water mark. Demand allocations then rarely pay the
    reclaim latency themselves. *)

type t

val create :
  ?low_water:int ->
  ?high_water:int ->
  Spin_sched.Sched.t ->
  Phys_addr.t ->
  t
(** Defaults: low water = total/16 pages, high water = 2 x low water,
    poll interval 200 us of virtual time. *)

val start : t -> unit
(** Spawns the daemon strand; runs until {!stop}. Must be called
    where {!Spin_sched.Sched.spawn} is legal. *)

val stop : t -> unit
(** Asks the strand to exit at its next wakeup (so a draining
    scheduler run terminates). *)

val released : t -> int
(** Pages released by the daemon since creation. *)

(** The physical address service (paper, Figure 3).

    Controls use and allocation of physical pages. Clients receive a
    capability for the memory, never a frame number — a physical page
    "is not a nameable entity" outside the service. Allocation takes
    attributes expressing machine-specific preferences (contiguity).

    When memory runs low the service runs the reclamation protocol
    (section 5.2): the [PhysAddr.SelectVictim] event picks a victim —
    the default policy is FIFO, {!Reclaim_policy} installs second
    chance, and a domain may install its own selector the way [Sched]
    replacements work — then the [PhysAddr.Reclaim] event gives
    services of lesser importance a chance to volunteer an alternative
    page (the caches volunteer their coldest), and finally every
    registered invalidate callback tears down mappings and cached
    state before the frames return to the free pool. *)

type t

type run = {
  first_pfn : int;              (** visible only to sibling services *)
  npages : int;
  owner : string;
}
(** A run of one or more physically contiguous frames. *)

type attrib = {
  contiguous : bool;            (** require physically adjacent frames *)
}

type page = run Spin_core.Capability.t

type victim_request = {
  requester : string;           (** owner string of the failed allocation *)
}
(** Argument of the [SelectVictim] event. *)

exception Out_of_memory

val create : Spin_machine.Machine.t -> Spin_core.Dispatcher.t -> t

val allocate : ?attrib:attrib -> t -> owner:string -> bytes:int -> page
(** Allocates enough frames to cover [bytes]. When the free pool is
    exhausted, runs the reclamation protocol to find victims before
    giving up with {!Out_of_memory}. Re-entrant allocation from a
    reclaim handler does not recurse: it fails straight to
    {!Out_of_memory}. *)

val deallocate : t -> page -> unit
(** Returns the frames and revokes the capability. Idempotent. *)

val reclaim_event : t -> (page, page) Spin_core.Dispatcher.event
(** [Reclaim] carries the chosen candidate page; a handler may return
    an alternative it would rather give up (only pages this service
    still tracks are accepted; anything else falls back to the
    candidate). *)

val select_victim_event :
  t -> (victim_request, page option) Spin_core.Dispatcher.event
(** [SelectVictim] is the replaceable page-replacement policy: given
    the pressured request, return the page to evict ([None] when
    nothing is left to give). The last applicable handler wins, so a
    later-installed policy overrides the default FIFO primary. *)

val add_invalidate : t -> (page -> unit) -> unit
(** Registers a callback run (in registration order) on every page
    being reclaimed, while its capability is still valid: the
    translation service unmaps it, caches drop the entry. *)

val force_reclaim : t -> page option
(** Reclaims one victim page now (for tests and the pageout daemon).
    The returned page has been invalidated and freed; [None] when no
    live page remains (idempotent at exhaustion). The reclaim itself
    allocates nothing: the answer is an option the service built when
    it allocated the page. *)

val set_reclaim_enabled : t -> bool -> unit
(** When disabled, allocation failure raises {!Out_of_memory}
    immediately (the ablation baseline for the [mem] workload). *)

val total_pages : t -> int

val free_pages : t -> int

val reclaims : t -> int
(** Pages reclaimed since boot. *)

val oom_failures : t -> int
(** Allocations that raised {!Out_of_memory}. *)

val live_pages : t -> page list
(** Live allocations, newest first. Policy handlers walk this. The
    service keeps the live set in place, so each call builds the list
    afresh (one cell per live page); allocation and release touch no
    list. *)

val page_run : page -> run
(** Sibling-service access to the frame numbers. Raises
    [Capability.Revoked] on a dead capability. *)

val page_owner : page -> string option
(** Owner string of a live page, [None] once revoked. *)

val owned_by : page -> string -> bool
(** [owned_by page owner]: whether [page] is live and allocated to
    [owner]. Allocates nothing. *)

(** {2 Reference bits}

    Second-chance and LRU-ish policies need per-page use information;
    the service keeps one reference bit per frame. Allocation leaves
    pages unreferenced; holders call {!touch} on access. *)

val touch : t -> page -> unit

val referenced : t -> page -> bool

val clear_referenced : t -> page -> unit

(** {2 Page contents}

    The caches keep their data in physical pages, not private
    buffers; copies are charged only at true hand-off points. *)

val read_into : t -> page -> off:int -> len:int -> Bytes.t -> pos:int -> unit
(** [read_into t page ~off ~len buf ~pos] copies [len] bytes of the
    page run at [off] into [buf] at [pos], charging the hardware copy
    cost — the hand-off from cache memory to the requesting domain.
    Allocates nothing. *)

val fill : t -> page -> off:int -> len:int -> Bytes.t -> pos:int -> unit
(** [fill t page ~off ~len src ~pos] stores [len] bytes of [src] from
    [pos] into the run at [off]: a device-side fill (DMA discipline),
    without a charged copy, the way the NIC writes frames. Used when
    the data was already paid for at its source (disk transfer).
    Allocates nothing. *)

val zero : t -> page -> unit
(** Zero-fill the pages (charging the copy cost). *)

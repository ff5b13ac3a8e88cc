(** The buffer cache: synchronous block I/O for strand-context code,
    with an LRU cache of recently used blocks held in physical pages.

    Cached data lives in {!Spin_vm.Phys_addr.page} capabilities, one
    8 KB page per aligned group of blocks, so the cache participates
    in the reclamation protocol: under memory pressure it volunteers
    its coldest page (when one of its own pages was picked anyway),
    and a reclaimed page simply turns the next read of its blocks
    into a miss. Copies are charged only at the hand-off from cache
    memory to the caller.

    Reads and writes block the calling strand on the disk when they
    miss; cached reads cost only the memory copy. Every disk request is
    one block in a buffer of the cache's own request record: a read
    lands there and a write is copied there before it is submitted.
    Concurrent reads of one block share a single disk request; a write
    waits out any request in flight on its block and then submits its
    own. Writes are write-through (the cache never holds dirty data),
    which keeps the web-server experiment's "double buffering" story
    honest: caching happens either here or in the file cache, and both
    can be turned off. *)

type t

val create :
  ?capacity_blocks:int ->
  phys:Spin_vm.Phys_addr.t ->
  Spin_machine.Machine.t -> Spin_sched.Sched.t -> Spin_machine.Disk_dev.t ->
  t
(** Default capacity: 2048 blocks (1 MB of pages). Registers the
    disk's completion interrupt handler, a volunteer handler on the
    physical service's [Reclaim] event, and an invalidate callback.
    The cache's page allocations are owned by ["BlockCache"]. *)

val read_into : t -> block:int -> Bytes.t -> pos:int -> unit
(** [read_into t ~block buf ~pos] copies one block into [buf] at
    [pos]. Must run in strand context on a miss. A hit allocates
    nothing. *)

val read : t -> block:int -> Bytes.t
(** {!read_into} a fresh block-sized buffer. *)

val read_uncached : t -> block:int -> Bytes.t -> pos:int -> len:int -> unit
(** [read_uncached t ~block buf ~pos ~len] copies the first [len]
    bytes of the block into [buf] at [pos], bypassing the cache
    entirely (the "non-caching file system" mode the SPIN web server
    runs on). Must run in strand context. The device reads into a
    block buffer the cache reuses, so a read allocates nothing. *)

val write : t -> block:int -> Bytes.t -> unit
(** Write-through of one block; updates the cached page when the
    block's group is resident. Must run in strand context. On an idle
    disk it allocates only the suspension. *)

val stats : t -> Cache_stats.t
(** [bytes_cached] counts whole resident pages; [reclaims] counts
    pages lost to memory pressure. *)

val degraded : t -> int
(** Reads served uncached because no page could be had even after
    reclamation. *)

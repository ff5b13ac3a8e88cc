(** Simulated memory management unit: per-context page tables and a
    software-modelled TLB.

    Translation contexts correspond to the Alpha's address space
    numbers. The MMU reports faults as values; the CPU turns them
    into traps, and SPIN's translation service turns the traps into
    dispatcher events. *)

type t

type context

type access = Read | Write

type fault =
  | Page_not_present     (** allocated but unmapped *)
  | Protection_violation (** mapped without the required right *)

type pte = {
  mutable pfn : int;
  mutable prot : Addr.prot;
  mutable modified : bool;
}

val create : Clock.t -> Phys_mem.t -> t

val mem : t -> Phys_mem.t

val create_context : t -> context
(** New empty translation context; charges one map operation. *)

val destroy_context : t -> context -> unit
(** Drops the context's mappings and flushes its TLB entries. *)

val context_id : context -> int

val contexts : t -> int
(** Number of live contexts. *)

val map : t -> context -> vpn:int -> pfn:int -> prot:Addr.prot -> unit
(** Installs a PTE (replacing any previous one); charges the hardware
    map cost and flushes the stale TLB entry. *)

val unmap : t -> context -> vpn:int -> unit

val protect : ?charge:bool -> t -> context -> vpn:int -> prot:Addr.prot -> bool
(** Changes the protection on an existing mapping; [false] when the
    page is not mapped. Charges one map operation unless
    [charge:false] (lazy protection models defer the hardware work). *)

val lookup : context -> vpn:int -> pte option
(** Page-table inspection; free of charge (used by the Dirty query,
    whose service-level cost is charged by the VM extension). *)

val translate : t -> context -> va:int -> access -> (int, fault) result
(** [translate t ctx ~va access] is the physical address, charging a
    TLB fill on misses, and recording reference/modify bits. A miss on
    an unmapped page is [Page_not_present], whether or not a virtual
    allocation backs it: the MMU cannot tell, so the translation
    service, which knows the allocations, raises its bad-address event
    for an address outside every region. *)

val tlb_stats : t -> int * int
(** (hits, misses) since boot. *)

val set_shootdown : t -> (unit -> unit) option -> unit
(** Installs the TLB shootdown hook, run synchronously after every
    operation that removes or narrows a translation ([unmap],
    [destroy_context], and [protect] when it removes a right) — on a
    multi-CPU machine other CPUs may cache the stale entry, so the
    initiator must interrupt them and wait for the flush before the
    operation returns. A [protect] that only widens rights skips it: a
    stale narrower entry re-faults harmlessly, which keeps lazy
    unprotection cheap on multiprocessors too. {!Machine.create}
    installs a hook that broadcasts shootdown IPIs through
    {!Intr.broadcast_sync} when the machine has more than one CPU;
    uniprocessors leave it [None] and pay nothing. *)

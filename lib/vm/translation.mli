(** The translation service (paper, Figure 3): expresses the
    relationship between virtual addresses and physical memory,
    installs mappings into the MMU, and turns exceptional MMU
    conditions into dispatcher events.

    Higher-level memory abstractions — demand paging, copy-on-write,
    address spaces, concurrent GC — are built by installing handlers
    on [Translation.PageNotPresent], [Translation.BadAddress] and
    [Translation.ProtectionFault]. *)

type t

type context
(** An addressing context (the paper's [Translation.T]). *)

type fault = {
  ctx : context;
  va : int;
}

val create :
  Spin_machine.Machine.t -> Spin_core.Dispatcher.t -> Phys_addr.t -> t
(** Also hooks the physical service's reclamation: any mappings to a
    reclaimed page are invalidated here. *)

val page_not_present : t -> (fault, unit) Spin_core.Dispatcher.event
val bad_address : t -> (fault, unit) Spin_core.Dispatcher.event
val protection_fault : t -> (fault, unit) Spin_core.Dispatcher.event

val create_context : t -> owner:string -> context
val destroy_context : t -> context -> unit

val context_id : context -> int
(** The address-space identifier ([asid] for the virtual address
    service). *)

val attach_region : context -> Virt_addr.region -> unit
(** Declare a virtual region allocated in this context. Accesses
    outside attached regions raise [BadAddress]; unmapped accesses
    inside them raise [PageNotPresent]. *)

val add_mapping :
  t -> context -> Virt_addr.vaddr -> Phys_addr.page ->
  Spin_machine.Addr.prot -> unit
(** Maps the region's pages to the run's frames (sizes must agree) and
    attaches the region. *)

val protect :
  t -> context -> va:int -> npages:int -> Spin_machine.Addr.prot -> int
(** Change protection on a range; returns how many pages were actually
    mapped (and hence changed). Charges the Table 4 protection-path
    costs. *)

val is_dirty : t -> context -> va:int -> bool
(** The page-state query of Table 4 ("Dirty"). *)

val handle_trap : t -> Spin_machine.Cpu.trap -> bool
(** Kernel trap handler leg: classifies a memory fault and raises the
    corresponding event. [false] for non-memory traps. *)

val mmu_context : context -> Spin_machine.Mmu.context
(** For [Cpu.set_context]. *)

val contexts : t -> int

type stats = {
  mutable faults_not_present : int;
  mutable faults_bad_address : int;
  mutable faults_protection : int;
  mutable invalidations : int;     (** mappings dropped by reclamation *)
}

val stats : t -> stats

(** The virtual address service (paper, Figure 3).

    Allocates capabilities for virtual address regions; a region is a
    virtual address, a length, and the address-space identifier that
    makes the address unique. *)

type t

type region = {
  va : int;
  bytes : int;
  asid : int;
}

type vaddr = region Spin_core.Capability.t

val create : Spin_machine.Machine.t -> t

val allocate : t -> asid:int -> bytes:int -> vaddr
(** Page-aligned, sized up to whole pages. Addresses are unique within
    the address space. *)

val deallocate : t -> vaddr -> unit

val region : vaddr -> region

val npages : region -> int

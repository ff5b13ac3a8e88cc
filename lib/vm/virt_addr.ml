module Addr = Spin_machine.Addr
module Clock = Spin_machine.Clock
module Machine = Spin_machine.Machine
module Capability = Spin_core.Capability

type region = {
  va : int;
  bytes : int;
  asid : int;
}

type vaddr = region Capability.t

type space = {
  mutable next_va : int;
  mutable regions : region list;         (* live allocations *)
}

type t = {
  machine : Machine.t;
  spaces : (int, space) Hashtbl.t;
}

(* User regions start above a guard gap so that va 0 never maps. *)
let base_va = 0x1_0000

let create machine = { machine; spaces = Hashtbl.create 16 }

let space_of t asid =
  match Hashtbl.find_opt t.spaces asid with
  | Some s -> s
  | None ->
    let s = { next_va = base_va; regions = [] } in
    Hashtbl.replace t.spaces asid s;
    s

let overlaps a_va a_bytes r =
  a_va < r.va + r.bytes && r.va < a_va + a_bytes

let round_bytes bytes = Addr.round_up_pages bytes * Addr.page_size

let allocate t ~asid ~bytes =
  if bytes <= 0 then invalid_arg "VirtAddr.allocate: no bytes";
  Clock.charge t.machine.Machine.clock
    (Clock.cost t.machine.Machine.clock).Spin_machine.Cost.virt_alloc;
  let s = space_of t asid in
  let bytes = round_bytes bytes in
  (* First fit in the gaps, else bump the frontier. *)
  let va =
    let sorted = List.sort (fun a b -> compare a.va b.va) s.regions in
    let rec gaps cursor = function
      | [] -> cursor
      | r :: rest ->
        if r.va - cursor >= bytes then cursor else gaps (r.va + r.bytes) rest in
    gaps base_va sorted in
  let va = if List.exists (overlaps va bytes) s.regions then s.next_va else va in
  let region = { va; bytes; asid } in
  s.regions <- region :: s.regions;
  s.next_va <- max s.next_va (va + bytes);
  Capability.mint ~owner:"VirtAddr" region

let deallocate t vaddr =
  match Capability.deref_opt vaddr with
  | None -> ()
  | Some region ->
    let s = space_of t region.asid in
    s.regions <- List.filter (fun r -> r <> region) s.regions;
    Capability.revoke vaddr

let region = Capability.deref

let npages r = Addr.round_up_pages r.bytes

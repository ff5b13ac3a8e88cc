open Spin_net
module Addr = Spin_machine.Addr
module Machine = Spin_machine.Machine
module Phys_mem = Spin_machine.Phys_mem
module Mmu = Spin_machine.Mmu
module Dispatcher = Spin_core.Dispatcher
module Translation = Spin_vm.Translation
module Phys_addr = Spin_vm.Phys_addr
module Virt_addr = Spin_vm.Virt_addr
module Vm = Spin_vm.Vm

let owner_name = "DSM"

type copy_state =
  | Absent
  | Read_copy of Phys_addr.page
  | Owned_rw of Phys_addr.page

type region = {
  region_id : int;
  pages : int;
  ctx : Translation.context;
  vaddr : Virt_addr.vaddr;
  states : copy_state array;
}

type directory_entry = {
  mutable dir_owner : Ip.addr;
  mutable copyset : Ip.addr list;
}

type t = {
  vm : Vm.t;
  host : Host.t;
  manager : Ip.addr;
  mutable regions : region list;
  (* Manager-side directory: (region, page) -> entry. *)
  directory : (int * int, directory_entry) Hashtbl.t;
  (* Manager's authoritative page contents while unclaimed. *)
  home_copies : (int * int, Bytes.t) Hashtbl.t;
  mutable s_read : int;
  mutable s_write : int;
  mutable s_inval : int;
}

let is_manager t = t.host.Host.addr = t.manager

(* ------------------------------------------------------------------ *)
(* Local frame bookkeeping                                            *)
(* ------------------------------------------------------------------ *)

let page_bytes t page =
  let run = Phys_addr.page_run page in
  Phys_mem.read_bytes t.vm.Vm.machine.Machine.mem
    ~pa:(Addr.pa_of_page run.Phys_addr.first_pfn) ~len:Addr.page_size

let fill_page t page data =
  let run = Phys_addr.page_run page in
  Phys_mem.write_bytes t.vm.Vm.machine.Machine.mem
    ~pa:(Addr.pa_of_page run.Phys_addr.first_pfn) data

let find_region t region_id =
  List.find_opt (fun r -> r.region_id = region_id) t.regions

let region_of_fault t (f : Translation.fault) =
  List.find_opt
    (fun r ->
      Translation.context_id r.ctx = Translation.context_id f.Translation.ctx
      && (let base = (Virt_addr.region r.vaddr).Virt_addr.va in
          f.Translation.va >= base
          && f.Translation.va < base + (r.pages * Addr.page_size)))
    t.regions

let page_index r va =
  (va - (Virt_addr.region r.vaddr).Virt_addr.va) / Addr.page_size

let install_copy t r ~page data ~writable =
  let frame = Phys_addr.allocate t.vm.Vm.phys ~owner:owner_name
      ~bytes:Addr.page_size in
  fill_page t frame data;
  let va = (Virt_addr.region r.vaddr).Virt_addr.va + (page * Addr.page_size) in
  Translation.map_one t.vm.Vm.trans r.ctx ~va frame ~index:0
    (if writable then Addr.prot_read_write else Addr.prot_read);
  r.states.(page) <-
    (if writable then Owned_rw frame else Read_copy frame)

let drop_copy t r ~page =
  (match r.states.(page) with
   | Absent -> ()
   | Read_copy frame | Owned_rw frame ->
     let va = (Virt_addr.region r.vaddr).Virt_addr.va + (page * Addr.page_size) in
     let vpn = Addr.vpn_of_va va in
     Mmu.unmap t.vm.Vm.machine.Machine.mmu (Translation.mmu_context r.ctx) ~vpn;
     Phys_addr.deallocate t.vm.Vm.phys frame;
     t.s_inval <- t.s_inval + 1);
  r.states.(page) <- Absent

let downgrade_copy t r ~page =
  match r.states.(page) with
  | Owned_rw frame ->
    let va = (Virt_addr.region r.vaddr).Virt_addr.va + (page * Addr.page_size) in
    ignore (Translation.protect t.vm.Vm.trans r.ctx ~va ~npages:1 Addr.prot_read);
    r.states.(page) <- Read_copy frame
  | Read_copy _ | Absent -> ()

(* ------------------------------------------------------------------ *)
(* Wire encodings                                                     *)
(* ------------------------------------------------------------------ *)

let encode_req ~region_id ~page =
  let b = Bytes.create 8 in
  Bytes.set_int32_le b 0 (Int32.of_int region_id);
  Bytes.set_int32_le b 4 (Int32.of_int page);
  b

let decode_req b =
  (Int32.to_int (Bytes.get_int32_le b 0), Int32.to_int (Bytes.get_int32_le b 4))

(* ------------------------------------------------------------------ *)
(* Node-side service procedures (called by the manager)               *)
(* ------------------------------------------------------------------ *)

(* dsm.fetch: return our copy of a page, downgrading to read-only. *)
let serve_fetch t args =
  let region_id, page = decode_req args in
  match find_region t region_id with
  | None -> Bytes.create Addr.page_size
  | Some r ->
    (match r.states.(page) with
     | Owned_rw frame | Read_copy frame ->
       downgrade_copy t r ~page;
       page_bytes t frame
     | Absent -> Bytes.create Addr.page_size)

(* dsm.yield: surrender our copy entirely (ownership transfer). *)
let serve_yield t args =
  let region_id, page = decode_req args in
  match find_region t region_id with
  | None -> Bytes.create Addr.page_size
  | Some r ->
    (match r.states.(page) with
     | Owned_rw frame | Read_copy frame ->
       let data = page_bytes t frame in
       drop_copy t r ~page;
       data
     | Absent -> Bytes.create Addr.page_size)

(* dsm.invalidate: drop a read copy. *)
let serve_invalidate t args =
  let region_id, page = decode_req args in
  (match find_region t region_id with
   | Some r -> drop_copy t r ~page
   | None -> ());
  Bytes.empty

(* ------------------------------------------------------------------ *)
(* Manager-side directory service                                     *)
(* ------------------------------------------------------------------ *)

let dir_entry t key =
  match Hashtbl.find_opt t.directory key with
  | Some e -> e
  | None ->
    let e = { dir_owner = t.manager; copyset = [] } in
    Hashtbl.replace t.directory key e;
    e

let call_node t ~dst ~name args =
  if dst = t.host.Host.addr then
    (* Local legs short-circuit (the manager is also a node). *)
    match name with
    | "dsm.fetch" -> Some (serve_fetch t args)
    | "dsm.yield" -> Some (serve_yield t args)
    | "dsm.invalidate" -> Some (serve_invalidate t args)
    | _ -> None
  else Rpc.call t.host.Host.rpc ~dst ~name args

let home_copy t key =
  match Hashtbl.find_opt t.home_copies key with
  | Some data -> data
  | None -> Bytes.create Addr.page_size

(* dsm.read: a node wants a read copy. *)
let serve_read t ~src args =
  let region_id, page = decode_req args in
  let key = (region_id, page) in
  let e = dir_entry t key in
  let data =
    if e.dir_owner = t.manager && not (List.mem t.manager e.copyset)
       && find_region t region_id
          |> Option.map (fun r -> r.states.(page) = Absent)
          |> Option.value ~default:true
    then home_copy t key
    else
      match call_node t ~dst:e.dir_owner ~name:"dsm.fetch" args with
      | Some d -> d
      | None -> home_copy t key in
  if not (List.mem src e.copyset) then e.copyset <- src :: e.copyset;
  Hashtbl.replace t.home_copies key data;   (* manager keeps it clean *)
  data

(* dsm.write: a node wants ownership. *)
let serve_write t ~src args =
  let region_id, page = decode_req args in
  let key = (region_id, page) in
  let e = dir_entry t key in
  (* Invalidate every copy except the requester's. *)
  List.iter
    (fun holder ->
      if holder <> src then
        ignore (call_node t ~dst:holder ~name:"dsm.invalidate" args))
    e.copyset;
  let data =
    if e.dir_owner = src then home_copy t key
    else if e.dir_owner = t.manager
            && (find_region t region_id
                |> Option.map (fun r -> r.states.(page) = Absent)
                |> Option.value ~default:true)
    then home_copy t key
    else
      match call_node t ~dst:e.dir_owner ~name:"dsm.yield" args with
      | Some d -> d
      | None -> home_copy t key in
  e.dir_owner <- src;
  e.copyset <- [ src ];
  data

(* ------------------------------------------------------------------ *)
(* Fault handling                                                     *)
(* ------------------------------------------------------------------ *)

(* Requests to the manager carry the caller's address (RPC does not
   expose it to service procedures). *)
let manager_args t ~region_id ~page =
  let b = Bytes.create 12 in
  Bytes.set_int32_le b 0 (Int32.of_int region_id);
  Bytes.set_int32_le b 4 (Int32.of_int page);
  Bytes.set_int32_le b 8 (Int32.of_int t.host.Host.addr);
  b

let fetch_read t r ~page =
  t.s_read <- t.s_read + 1;
  match
    if is_manager t then
      Some (serve_read t ~src:t.host.Host.addr
              (encode_req ~region_id:r.region_id ~page))
    else
      Rpc.call t.host.Host.rpc ~dst:t.manager ~name:"dsm.read"
        (manager_args t ~region_id:r.region_id ~page)
  with
  | Some data -> install_copy t r ~page data ~writable:false
  | None -> ()

let fetch_write t r ~page =
  t.s_write <- t.s_write + 1;
  match
    if is_manager t then
      Some (serve_write t ~src:t.host.Host.addr
              (encode_req ~region_id:r.region_id ~page))
    else
      Rpc.call t.host.Host.rpc ~dst:t.manager ~name:"dsm.write"
        (manager_args t ~region_id:r.region_id ~page)
  with
  | Some data ->
    (* We may hold a stale read copy: replace it. *)
    drop_copy t r ~page;
    t.s_inval <- t.s_inval - 1;             (* self-drop is not an inval *)
    install_copy t r ~page data ~writable:true
  | None -> ()

let handle_not_present t f =
  match region_of_fault t f with
  | None -> ()
  | Some r ->
    let page = page_index r f.Translation.va in
    (match f.Translation.access with
     | Mmu.Write -> fetch_write t r ~page
     | Mmu.Read | Mmu.Execute -> fetch_read t r ~page)

let handle_protection t f =
  match region_of_fault t f with
  | None -> ()
  | Some r ->
    if f.Translation.access = Mmu.Write then
      fetch_write t r ~page:(page_index r f.Translation.va)

(* ------------------------------------------------------------------ *)
(* Public interface                                                   *)
(* ------------------------------------------------------------------ *)

let create vm host ~manager =
  let t = {
    vm; host; manager;
    regions = [];
    directory = Hashtbl.create 64;
    home_copies = Hashtbl.create 64;
    s_read = 0; s_write = 0; s_inval = 0;
  } in
  (* Node services. *)
  Rpc.export host.Host.rpc ~name:"dsm.fetch" (serve_fetch t);
  Rpc.export host.Host.rpc ~name:"dsm.yield" (serve_yield t);
  Rpc.export host.Host.rpc ~name:"dsm.invalidate" (serve_invalidate t);
  (* Manager directory services: src is recovered from the argument
     tail (RPC does not expose the caller, so the caller appends its
     address). *)
  let with_src serve args =
    let src = Int32.to_int (Bytes.get_int32_le args 8) in
    serve t ~src (Bytes.sub args 0 8) in
  if host.Host.addr = manager then begin
    Rpc.export host.Host.rpc ~name:"dsm.read" (with_src serve_read);
    Rpc.export host.Host.rpc ~name:"dsm.write" (with_src serve_write)
  end;
  (* Fault handlers, guarded to our regions. *)
  let spec =
    Dispatcher.Handler_spec.guarded (fun f -> Option.is_some (region_of_fault t f)) in
  let install ev handler =
    ignore
      (Dispatcher.ok_exn ~site:"Dsm.create"
         (Dispatcher.install ev ~installer:owner_name ~spec handler)) in
  install (Translation.page_not_present vm.Vm.trans) (handle_not_present t);
  install (Translation.protection_fault vm.Vm.trans) (handle_protection t);
  t

let attach t ctx ~region_id ~pages =
  let vaddr =
    Virt_addr.allocate t.vm.Vm.virt ~asid:(Translation.context_id ctx)
      ~owner:owner_name ~bytes:(pages * Addr.page_size) in
  Translation.attach_region ctx (Virt_addr.region vaddr);
  let r = { region_id; pages; ctx; vaddr;
            states = Array.make pages Absent } in
  t.regions <- r :: t.regions;
  r

let base_va r = (Virt_addr.region r.vaddr).Virt_addr.va

let va_of_page r i =
  if i < 0 || i >= r.pages then invalid_arg "Dsm.va_of_page";
  base_va r + (i * Addr.page_size)

(* Reads and writes go through the CPU so faults route normally. *)
let read_word t r ~page =
  Spin_machine.Cpu.set_context t.vm.Vm.machine.Machine.cpu
    (Some (Translation.mmu_context r.ctx));
  Spin_machine.Cpu.load_word t.vm.Vm.machine.Machine.cpu ~va:(va_of_page r page)

let write_word t r ~page v =
  Spin_machine.Cpu.set_context t.vm.Vm.machine.Machine.cpu
    (Some (Translation.mmu_context r.ctx));
  Spin_machine.Cpu.store_word t.vm.Vm.machine.Machine.cpu ~va:(va_of_page r page) v

type node_stats = {
  read_faults : int;
  write_faults : int;
  invalidations : int;
}

let stats t = {
  read_faults = t.s_read;
  write_faults = t.s_write;
  invalidations = max 0 t.s_inval;
}

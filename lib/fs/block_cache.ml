module Machine = Spin_machine.Machine
module Disk = Spin_machine.Disk_dev
module Intr = Spin_machine.Intr
module Addr = Spin_machine.Addr
module Sched = Spin_sched.Sched
module Lru = Spin_dstruct.Lru
module Capability = Spin_core.Capability
module Dispatcher = Spin_core.Dispatcher
module Phys_addr = Spin_vm.Phys_addr

let blocks_per_page = Addr.page_size / Disk.block_size

type pending = {
  mutable waiters : Spin_sched.Strand.t list;
  mutable data : Bytes.t option;
  mutable complete : bool;
}

(* One physical page caches a [blocks_per_page]-aligned group of
   blocks; [valid] is the bitmask of slots actually filled. *)
type entry = {
  page : Phys_addr.page;
  mutable valid : int;
}

(* The owner of this cache's page allocations. *)
let owner = "BlockCache"

type t = {
  sched : Sched.t;
  disk : Disk.t;
  phys : Phys_addr.t;
  cache : (int, entry) Lru.t;             (* block group -> page *)
  pending : (int, pending) Hashtbl.t;     (* block -> in-flight I/O + waiters *)
  mutable hits : int;
  mutable misses : int;
  mutable reclaims : int;
  mutable degraded : int;
}

let coldest_page t =
  match Lru.least_recent t.cache with
  | Some (_, e) -> e.page
  | None -> assert false (* handler guarded on a non-empty cache *)

(* The reclamation protocol chose one of our pages; drop whatever
   entry held it (the service frees the frames itself). *)
let forget t page =
  let key = ref None in
  Lru.iter (fun k e -> if Capability.equal e.page page then key := Some k)
    t.cache;
  match !key with
  | Some k ->
    Lru.remove t.cache k;                 (* no on_evict: page is going *)
    t.reclaims <- t.reclaims + 1
  | None -> ()

let create ?(capacity_blocks = 2048) ~phys machine sched disk =
  let capacity_pages = max 1 (capacity_blocks / blocks_per_page) in
  let t = {
    sched; disk; phys;
    cache =
      Lru.create
        ~on_evict:(fun _ e -> Phys_addr.deallocate phys e.page)
        ~capacity:capacity_pages ();
    pending = Hashtbl.create 32;
    hits = 0; misses = 0; reclaims = 0; degraded = 0;
  } in
  Intr.register machine.Machine.intr ~line:(Disk.line disk) (fun () ->
    let rec drain () =
      match Disk.take_completion disk with
      | None -> ()
      | Some completion ->
        let block, data =
          match completion with
          | Disk.Read_done { block; data; _ } -> block, Some data
          | Disk.Write_done { block; _ } -> block, None in
        (match Hashtbl.find_opt t.pending block with
         | Some p ->
           Hashtbl.remove t.pending block;
           p.data <- data;
           p.complete <- true;
           List.iter (Sched.unblock sched) p.waiters
         | None -> ());
        drain () in
    drain ());
  (* Volunteer under memory pressure: when the chosen candidate is
     already one of our pages, substitute the coldest one instead so
     the hot end of the cache survives. *)
  let ours candidate =
    Lru.length t.cache > 0
    && (match Phys_addr.page_owner candidate with
        | Some o -> String.equal o owner
        | None -> false) in
  ignore
    (Dispatcher.ok_exn ~site:"Block_cache.create"
       (Dispatcher.install (Phys_addr.reclaim_event phys) ~installer:owner
          ~spec:(Dispatcher.Handler_spec.guarded ours)
          (fun _candidate -> coldest_page t)));
  Phys_addr.add_invalidate phys (forget t);
  t

let wait_for t block submit =
  (* Single-flight per block: concurrent waiters join the in-flight
     request instead of overwriting each other's registration (which
     left every waiter but the last blocked forever — the lost wakeup
     the schedule fuzzer finds). *)
  let p =
    match Hashtbl.find_opt t.pending block with
    | Some p ->
      p.waiters <- Sched.self t.sched :: p.waiters;
      p
    | None ->
      let p = { waiters = [ Sched.self t.sched ]; data = None;
                complete = false } in
      Hashtbl.replace t.pending block p;
      submit ();
      p in
  (* Wakeups can be spurious (e.g. the caller is a protocol thread
     that network interrupts also unblock): wait for completion. *)
  while not p.complete do
    Sched.block_current t.sched
  done;
  p.data

let rec disk_read t block =
  match wait_for t block (fun () -> Disk.submit_read t.disk ~block ~count:1) with
  | Some data -> data
  | None ->
    (* Joined an in-flight write's completion (which carries no data):
       that I/O is done now, so a fresh read of our own will submit. *)
    disk_read t block

let group_of block = block / blocks_per_page
let slot_of block = block mod blocks_per_page
let slot_off block = slot_of block * Disk.block_size

(* Cache a block just read from disk in the group's page if one is
   resident now, else in a fresh page; under hopeless pressure serve
   it uncached. *)
let cache_read t ~block ~group ~bit data =
  (* Re-check after the wait: a concurrent reader of the same group
     may have cached it while we slept; a second Lru.add would leak
     its page (replacement bypasses the eviction callback). *)
  match Lru.find t.cache group with
  | Some e when Capability.is_valid e.page ->
    Phys_addr.touch t.phys e.page;
    Phys_addr.fill t.phys e.page ~off:(slot_off block) data;
    e.valid <- e.valid lor bit
  | Some _ | None ->
    (match Phys_addr.allocate t.phys ~owner ~bytes:Addr.page_size with
     | page ->
       Phys_addr.touch t.phys page;
       Phys_addr.fill t.phys page ~off:(slot_off block) data;
       Lru.add t.cache group { page; valid = bit }
     | exception Phys_addr.Out_of_memory -> t.degraded <- t.degraded + 1)

(* A hit copies out of the cache page, charged; a miss hands over the
   device's buffer, already paid for at the disk, uncharged. *)
let read_into t ~block buf ~pos =
  let group = group_of block in
  let bit = 1 lsl slot_of block in
  match Lru.find t.cache group with
  | Some e when Capability.is_valid e.page ->
    if e.valid land bit <> 0 then begin
      t.hits <- t.hits + 1;
      Phys_addr.touch t.phys e.page;
      (* The hand-off copy out of cache memory — the only charge. *)
      Phys_addr.read_into t.phys e.page ~off:(slot_off block)
        ~len:Disk.block_size buf ~pos
    end
    else begin
      (* The page is resident but this slot was never filled. *)
      t.misses <- t.misses + 1;
      let data = disk_read t block in
      (* Reclaim may have taken the page during the wait. *)
      if Capability.is_valid e.page then begin
        Phys_addr.touch t.phys e.page;
        Phys_addr.fill t.phys e.page ~off:(slot_off block) data;
        e.valid <- e.valid lor bit
      end else cache_read t ~block ~group ~bit data;
      Bytes.blit data 0 buf pos Disk.block_size
    end
  | Some _ ->
    (* Lost the page behind our back; treat as a cold miss. *)
    Lru.remove t.cache group;
    t.misses <- t.misses + 1;
    let data = disk_read t block in
    cache_read t ~block ~group ~bit data;
    Bytes.blit data 0 buf pos Disk.block_size
  | None ->
    t.misses <- t.misses + 1;
    let data = disk_read t block in
    cache_read t ~block ~group ~bit data;
    Bytes.blit data 0 buf pos Disk.block_size

let read t ~block =
  let buf = Bytes.create Disk.block_size in
  read_into t ~block buf ~pos:0;
  buf

let read_uncached t ~block =
  t.misses <- t.misses + 1;
  disk_read t block

let write_block t block data =
  if Bytes.length data <> Disk.block_size then
    invalid_arg "Block_cache.write: not one block";
  ignore (wait_for t block (fun () -> Disk.submit_write t.disk ~block data))

let write t ~block data =
  write_block t block data;
  match Lru.peek t.cache (group_of block) with
  | Some e when Capability.is_valid e.page ->
    Phys_addr.fill t.phys e.page ~off:(slot_off block) data;
    e.valid <- e.valid lor (1 lsl slot_of block)
  | Some _ -> Lru.remove t.cache (group_of block)
  | None -> ()

let stats t =
  { Cache_stats.hits = t.hits;
    misses = t.misses;
    bytes_cached = Lru.length t.cache * Addr.page_size;
    reclaims = t.reclaims }

let degraded t = t.degraded

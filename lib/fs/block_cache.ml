module Machine = Spin_machine.Machine
module Disk = Spin_machine.Disk_dev
module Intr = Spin_machine.Intr
module Addr = Spin_machine.Addr
module Sched = Spin_sched.Sched
module Strand = Spin_sched.Strand
module Lru = Spin_dstruct.Lru
module Dllist = Spin_dstruct.Dllist
module Capability = Spin_core.Capability
module Dispatcher = Spin_core.Dispatcher
module Phys_addr = Spin_vm.Phys_addr

let blocks_per_page = Addr.page_size / Disk.block_size

(* A disk request on one block and the strands waiting on it. A read
   lands in [buf], and each strand that waited on it copies the block
   out and lets go; a record no strand holds ([users = 0]) serves the
   next request. *)
type request = {
  mutable block : int;
  mutable write : bool;
  mutable complete : bool;
  mutable users : int;
  buf : Bytes.t;                          (* one block *)
  (* Newest first, and woken in that order: the seeded schedule
     replays and fuzz totals pin it. *)
  waiters : Strand.t Dllist.t;
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
  mutable requests : request array;       (* in flight, held or free *)
  mutable hits : int;
  mutable misses : int;
  mutable reclaims : int;
  mutable degraded : int;
}

let coldest_page t =
  match Lru.least_recent t.cache with
  | Some e -> e.page
  | None -> assert false (* handler guarded on a non-empty cache *)

let holds e page = Capability.equal e.page page

(* The reclamation protocol chose one of our pages; drop whatever
   entry held it (the service frees the frames itself). *)
let forget t page =
  match Lru.remove_first t.cache holds page with   (* no on_evict *)
  | Some _ -> t.reclaims <- t.reclaims + 1
  | None -> ()

(* The index of the request in flight on [block], or -1. *)
let rec in_flight t block i =
  if i = Array.length t.requests then -1
  else
    let r = t.requests.(i) in
    if r.users > 0 && (not r.complete) && r.block = block then i
    else in_flight t block (i + 1)

let rec wake t waiters =
  match Dllist.pop_front waiters with
  | Some n -> Sched.unblock t.sched (Dllist.value n); wake t waiters
  | None -> ()

(* The completion interrupt: wake every strand waiting on each finished
   request. *)
let rec drain t =
  let block = Disk.take_completion t.disk in
  if block >= 0 then begin
    let i = in_flight t block 0 in
    if i >= 0 then begin
      let r = t.requests.(i) in
      r.complete <- true;
      wake t r.waiters
    end;
    drain t
  end

let create ?(capacity_blocks = 2048) ~phys machine sched disk =
  let capacity_pages = max 1 (capacity_blocks / blocks_per_page) in
  let t = {
    sched; disk; phys;
    cache =
      Lru.create
        ~on_evict:(fun _ e -> Phys_addr.deallocate phys e.page)
        ~capacity:capacity_pages ();
    requests = [||];
    hits = 0; misses = 0; reclaims = 0; degraded = 0;
  } in
  Intr.register machine.Machine.intr ~line:(Disk.line disk) (fun () -> drain t);
  (* Volunteer under memory pressure: when the chosen candidate is
     already one of our pages, substitute the coldest one instead so
     the hot end of the cache survives. *)
  let ours candidate =
    Lru.length t.cache > 0 && Phys_addr.owned_by candidate owner in
  ignore
    (Dispatcher.ok_exn ~site:"Block_cache.create"
       (Dispatcher.install (Phys_addr.reclaim_event phys) ~installer:owner
          ~spec:(Dispatcher.Handler_spec.guarded ours)
          (fun _candidate -> coldest_page t)));
  Phys_addr.add_invalidate phys (forget t);
  t

(* A request record no strand holds; a new one when all are held. *)
let rec free_request t i =
  if i = Array.length t.requests then begin
    let r = { block = -1; write = false; complete = true; users = 0;
              buf = Bytes.create Disk.block_size; waiters = Dllist.create () } in
    t.requests <- Array.append t.requests [| r |];
    r
  end
  else if t.requests.(i).users = 0 then t.requests.(i)
  else free_request t (i + 1)

let release r = r.users <- r.users - 1

(* Holds [r] until [release] and waits for it to complete, submitting
   it first when [submit]: a write's block is copied into [r]'s own
   buffer, which the device stores at completion. The waiter is linked
   before the request can complete; wakeups can be spurious (e.g. the
   caller is a protocol thread that network interrupts also unblock),
   so it waits for completion itself. *)
let wait_on t r ~submit ~write block data =
  r.users <- r.users + 1;
  Dllist.link_front r.waiters (Strand.wait_node (Sched.self t.sched));
  if submit then begin
    if write then Bytes.blit data 0 r.buf 0 Disk.block_size;
    Disk.submit t.disk ~write ~block r.buf
  end;
  while not r.complete do
    Sched.block_current t.sched
  done

(* A completed request on [block] of the kind asked, held: release it
   once its result is taken. Single-flight per block: a read joins the
   read in flight instead of registering its own (two registrations
   left every waiter but the last blocked forever — the lost wakeup
   the schedule fuzzer finds). A write, or a read finding a write in
   flight, waits that request out and then submits its own. *)
let rec await t ~write block data =
  let i = in_flight t block 0 in
  if i < 0 then begin
    let r = free_request t 0 in
    r.block <- block;
    r.write <- write;
    r.complete <- false;
    wait_on t r ~submit:true ~write block data;
    r
  end
  else begin
    let r = t.requests.(i) in
    wait_on t r ~submit:false ~write block data;
    if write || r.write then begin
      release r;
      await t ~write block data
    end
    else r
  end

let group_of block = block / blocks_per_page
let slot_of block = block mod blocks_per_page
let slot_off block = slot_of block * Disk.block_size

let fill_slot t page block src =
  Phys_addr.fill t.phys page ~off:(slot_off block) ~len:Disk.block_size src
    ~pos:0

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
    fill_slot t e.page block data;
    e.valid <- e.valid lor bit
  | Some _ | None ->
    (match Phys_addr.allocate t.phys ~owner ~bytes:Addr.page_size with
     | page ->
       Phys_addr.touch t.phys page;
       fill_slot t page block data;
       Lru.add t.cache group { page; valid = bit }
     | exception Phys_addr.Out_of_memory -> t.degraded <- t.degraded + 1)

(* A miss with no usable page for the group: read, cache, hand over. *)
let cold_miss t ~block ~group ~bit buf ~pos =
  t.misses <- t.misses + 1;
  let r = await t ~write:false block Bytes.empty in
  cache_read t ~block ~group ~bit r.buf;
  Bytes.blit r.buf 0 buf pos Disk.block_size;
  release r

(* A hit copies out of the cache page, charged; a miss hands over the
   block the device read, already paid for at the disk, uncharged. *)
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
      let r = await t ~write:false block Bytes.empty in
      (* Reclaim may have taken the page during the wait. *)
      if Capability.is_valid e.page then begin
        Phys_addr.touch t.phys e.page;
        fill_slot t e.page block r.buf;
        e.valid <- e.valid lor bit
      end else cache_read t ~block ~group ~bit r.buf;
      Bytes.blit r.buf 0 buf pos Disk.block_size;
      release r
    end
  | Some _ ->
    (* Lost the page behind our back; treat as a cold miss. *)
    Lru.remove t.cache group;
    cold_miss t ~block ~group ~bit buf ~pos
  | None -> cold_miss t ~block ~group ~bit buf ~pos

let read t ~block =
  let buf = Bytes.create Disk.block_size in
  read_into t ~block buf ~pos:0;
  buf

let read_uncached t ~block buf ~pos ~len =
  if len < 0 || len > Disk.block_size then
    invalid_arg "Block_cache.read_uncached: not within one block";
  t.misses <- t.misses + 1;
  let r = await t ~write:false block Bytes.empty in
  Bytes.blit r.buf 0 buf pos len;
  release r

let write t ~block data =
  if Bytes.length data <> Disk.block_size then
    invalid_arg "Block_cache.write: not one block";
  release (await t ~write:true block data);
  match Lru.peek t.cache (group_of block) with
  | Some e when Capability.is_valid e.page ->
    fill_slot t e.page block data;
    e.valid <- e.valid lor (1 lsl slot_of block)
  | Some _ -> Lru.remove t.cache (group_of block)
  | None -> ()

let stats t =
  { Cache_stats.hits = t.hits;
    misses = t.misses;
    bytes_cached = Lru.length t.cache * Addr.page_size;
    reclaims = t.reclaims }

let degraded t = t.degraded

module Lru = Spin_dstruct.Lru
module Addr = Spin_machine.Addr
module Capability = Spin_core.Capability
module Dispatcher = Spin_core.Dispatcher
module Phys_addr = Spin_vm.Phys_addr

(* A cached file: its bytes spread over single (non-contiguous)
   physical pages, one per 8 KB chunk, so pressure never needs a
   contiguous run to refill the cache. *)
type entry = {
  pages : Phys_addr.page array;
  size : int;
}

(* The owner of this cache's page allocations. *)
let owner = "FileCache"

type t = {
  fs : Simple_fs.t;
  phys : Phys_addr.t;
  capacity_bytes : int;
  cache : (string, entry) Lru.t;
  mutable bytes_held : int;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable large_count : int;
  mutable reclaim_count : int;
  mutable degraded_count : int;
}

let entry_bytes e = Array.length e.pages * Addr.page_size

let dealloc_entry t e = Array.iter (Phys_addr.deallocate t.phys) e.pages

let coldest_page t =
  match Lru.least_recent t.cache with
  | Some e -> e.pages.(0)
  | None -> assert false (* handler guarded on a non-empty cache *)

let rec holds_from pages page i =
  i < Array.length pages
  && (Capability.equal pages.(i) page || holds_from pages page (i + 1))

let holds e page = holds_from e.pages page 0

(* One of our pages is being reclaimed: the whole entry it belonged
   to goes (the service frees the chosen page; siblings go back by
   hand). *)
let forget t page =
  match Lru.remove_first t.cache holds page with   (* no on_evict *)
  | None -> ()
  | Some e ->
    t.bytes_held <- t.bytes_held - entry_bytes e;
    for i = 0 to Array.length e.pages - 1 do
      let p = e.pages.(i) in
      if not (Capability.equal p page) then Phys_addr.deallocate t.phys p
    done;
    t.reclaim_count <- t.reclaim_count + 1

(* Files larger than this bypass the cache entirely. *)
let large_threshold = 64 * 1024

let create ?(capacity_bytes = 4 * 1024 * 1024) ~phys fs =
  let rec t =
    lazy
      { fs; phys; capacity_bytes;
        cache =
          Lru.create
            ~on_evict:(fun _ e ->
              let self = Lazy.force t in
              self.bytes_held <- self.bytes_held - entry_bytes e;
              dealloc_entry self e)
            ~capacity:4096 ();
        bytes_held = 0; hit_count = 0; miss_count = 0; large_count = 0;
        reclaim_count = 0; degraded_count = 0 } in
  let t = Lazy.force t in
  let ours candidate =
    Lru.length t.cache > 0 && Phys_addr.owned_by candidate owner in
  ignore
    (Dispatcher.ok_exn ~site:"File_cache.create"
       (Dispatcher.install (Phys_addr.reclaim_event phys) ~installer:owner
          ~spec:(Dispatcher.Handler_spec.guarded ours)
          (fun _candidate -> coldest_page t)));
  Phys_addr.add_invalidate phys (forget t);
  t

(* Each eviction gives its pages back through the cache's [on_evict]. *)
let rec evict_to_budget t =
  if t.bytes_held > t.capacity_bytes && Lru.length t.cache > 0 then begin
    Lru.evict t.cache;
    evict_to_budget t
  end

let allocate t = Phys_addr.allocate t.phys ~owner ~bytes:Addr.page_size

(* Allocates [pages] from [i] on: the index it stopped at, short of the
   end when memory ran out. *)
let rec take_pages t pages i =
  if i = Array.length pages then i
  else
    match allocate t with
    | p -> pages.(i) <- p; take_pages t pages (i + 1)
    | exception Phys_addr.Out_of_memory -> i

(* Take pages for [data] and insert it, each page filled straight from
   [data]; under hopeless pressure give back whatever we got and stay
   uncached. *)
let try_insert t ~name data =
  let size = Bytes.length data in
  let n = max 1 (Addr.round_up_pages size) in
  match allocate t with
  | exception Phys_addr.Out_of_memory -> t.degraded_count <- t.degraded_count + 1
  | first ->
    let pages = Array.make n first in
    let got = take_pages t pages 1 in
    if got < n then begin
      for i = 0 to got - 1 do Phys_addr.deallocate t.phys pages.(i) done;
      t.degraded_count <- t.degraded_count + 1
    end
    else begin
      for i = 0 to n - 1 do
        let p = pages.(i) in
        Phys_addr.touch t.phys p;
        let off = i * Addr.page_size in
        let chunk = min Addr.page_size (size - off) in
        if chunk > 0 then Phys_addr.fill t.phys p ~off:0 ~len:chunk data ~pos:off
      done;
      let e = { pages; size } in
      Lru.add t.cache name e;
      t.bytes_held <- t.bytes_held + entry_bytes e;
      evict_to_budget t
    end

(* Assemble a hit: the charged copy out of cache pages, straight into
   the body, is the hand-off to the requesting domain. *)
let read_out t e =
  let out = Bytes.create e.size in
  for i = 0 to Array.length e.pages - 1 do
    let p = e.pages.(i) in
    let off = i * Addr.page_size in
    let chunk = min Addr.page_size (e.size - off) in
    if chunk > 0 then
      Phys_addr.read_into t.phys p ~off:0 ~len:chunk out ~pos:off;
    Phys_addr.touch t.phys p
  done;
  out

let drop t name e =
  t.bytes_held <- t.bytes_held - entry_bytes e;
  dealloc_entry t e;
  Lru.remove t.cache name

let refetch t ~name =
  t.miss_count <- t.miss_count + 1;
  let data = Simple_fs.read t.fs ~name in
  try_insert t ~name data;
  Some data

let rec all_valid pages i =
  i = Array.length pages
  || (Capability.is_valid pages.(i) && all_valid pages (i + 1))

let fetch t ~name =
  if not (Simple_fs.exists t.fs ~name) then None
  else if Simple_fs.size t.fs ~name > large_threshold then begin
    (* Large: never cached, read around the buffer cache too. *)
    t.large_count <- t.large_count + 1;
    Some (Simple_fs.read t.fs ~name)
  end else
    match Lru.find t.cache name with
    | Some e when all_valid e.pages 0 ->
      t.hit_count <- t.hit_count + 1;
      Some (read_out t e)
    | Some e ->
      (* Lost a page behind our back: re-fetch. *)
      drop t name e;
      refetch t ~name
    | None -> refetch t ~name

let stats t =
  { Cache_stats.hits = t.hit_count;
    misses = t.miss_count;
    bytes_cached = t.bytes_held;
    reclaims = t.reclaim_count }

let large_bypasses t = t.large_count

let degraded t = t.degraded_count

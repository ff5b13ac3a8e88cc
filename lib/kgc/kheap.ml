module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost

type value =
  | Ptr of int
  | Int of int

type obj = {
  mutable address : int;
  owner : string;
  fields : value array;
}

type page = {
  pid : int;
  mutable bump : int;
  mutable objs : obj list;
}

type root = { mutable v : value }

type gc_stats = {
  mutable collections : int;
  mutable pages_pinned : int;
  mutable words_freed : int;
  mutable pause_cycles : int;
}

type t = {
  clock : Clock.t;
  objects : (int, obj) Hashtbl.t;        (* address -> object *)
  mutable pages : page list;
  mutable next_pid : int;
  mutable roots : root list;
  mutable ambiguous : int list;
  mutable auto : bool;
  mutable since_gc : int;
  mutable in_gc : bool;
  stats : gc_stats;
}

(* Collector page size. *)
let page_words = 1024

(* Allocation between automatic collections. *)
let threshold_words = 16384

let create clock () =
  { clock;
    objects = Hashtbl.create 1024;
    pages = []; next_pid = 0;
    roots = []; ambiguous = [];
    auto = true; since_gc = 0; in_gc = false;
    stats =
      { collections = 0; pages_pinned = 0; words_freed = 0;
        pause_cycles = 0 } }

let addr_of page offset = (page.pid * page_words) + offset

let page_of_addr addr = addr / page_words

let new_page t =
  let p = { pid = t.next_pid; bump = 0; objs = [] } in
  t.next_pid <- t.next_pid + 1;
  t.pages <- p :: t.pages;
  p

let place t page obj words =
  obj.address <- addr_of page page.bump;
  page.bump <- page.bump + words;
  page.objs <- obj :: page.objs;
  Hashtbl.replace t.objects obj.address obj

let find_room t words =
  match List.find_opt (fun p -> p.bump + words <= page_words) t.pages with
  | Some p -> p
  | None -> new_page t

let obj_at t addr =
  match Hashtbl.find_opt t.objects addr with
  | Some o -> o
  | None -> invalid_arg (Printf.sprintf "Kheap: %d is not a live object" addr)

(* ------------------------------------------------------------------ *)
(* Collection                                                         *)
(* ------------------------------------------------------------------ *)

let collect_now t =
  t.in_gc <- true;
  let cost = Clock.cost t.clock and work = ref 0 in
  (* 1. Ambiguous roots pin the pages of their referents. *)
  let pinned_pids = Hashtbl.create 16 in
  let ambiguous_objs =
    List.filter_map
      (fun a ->
        match Hashtbl.find_opt t.objects a with
        | Some o ->
          Hashtbl.replace pinned_pids (page_of_addr o.address) ();
          Some o
        | None -> None)
      t.ambiguous in
  t.stats.pages_pinned <- t.stats.pages_pinned + Hashtbl.length pinned_pids;
  (* 2. Trace reachability from unambiguous + ambiguous roots. *)
  let live : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let rec trace v =
    match v with
    | Int _ -> ()
    | Ptr a ->
      if not (Hashtbl.mem live a) then
        match Hashtbl.find_opt t.objects a with
        | None -> ()                      (* dangling: ignore, ambiguous *)
        | Some o ->
          Hashtbl.replace live a ();
          work := !work + (Array.length o.fields * cost.Cost.gc_scan_per_word);
          Array.iter trace o.fields in
  List.iter (fun r -> trace r.v) t.roots;
  List.iter (fun o -> trace (Ptr o.address)) ambiguous_objs;
  (* 3. Partition pages; promote pinned pages wholesale. *)
  let pinned_pages, from_pages =
    List.partition (fun p -> Hashtbl.mem pinned_pids p.pid) t.pages in
  (* 4. Copy live objects off the from-space pages. *)
  t.pages <- pinned_pages;
  let forwarding : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let freed = ref 0 in
  List.iter
    (fun p ->
      List.iter
        (fun o ->
          let words = Array.length o.fields in
          let old = o.address in
          if Hashtbl.mem live old then begin
            Hashtbl.remove t.objects old;
            let target = find_room t words in
            place t target o words;
            Hashtbl.replace forwarding old o.address;
            work := !work + (words * cost.Cost.gc_copy_per_word)
          end else begin
            Hashtbl.remove t.objects old;
            freed := !freed + words;
            t.stats.words_freed <- t.stats.words_freed + words
          end)
        p.objs)
    from_pages;
  (* 5. Forward every reference (live and pinned objects, and roots). *)
  let forward = function
    | Ptr a as v ->
      (match Hashtbl.find_opt forwarding a with
       | Some a' -> Ptr a'
       | None -> v)
    | Int _ as v -> v in
  Hashtbl.iter
    (fun _ o ->
      Array.iteri (fun i v -> o.fields.(i) <- forward v) o.fields)
    t.objects;
  List.iter (fun r -> r.v <- forward r.v) t.roots;
  (* 6. Account the pause. *)
  let pause = cost.Cost.gc_pause + !work in
  Clock.charge t.clock pause;
  t.stats.pause_cycles <- t.stats.pause_cycles + pause;
  t.stats.collections <- t.stats.collections + 1;
  t.since_gc <- 0;
  t.in_gc <- false;
  ignore !freed

let collect t = if not t.in_gc then collect_now t

(* ------------------------------------------------------------------ *)
(* Mutator interface                                                  *)
(* ------------------------------------------------------------------ *)

let alloc t ~owner ~words =
  if words < 1 || words > page_words then
    invalid_arg "Kheap.alloc: bad size";
  if t.auto && t.since_gc >= threshold_words then collect t;
  let cost = Clock.cost t.clock in
  Clock.charge t.clock
    (cost.Cost.alloc_fixed + (words * cost.Cost.alloc_per_word));
  t.since_gc <- t.since_gc + words;
  let obj = { address = -1; owner; fields = Array.make words (Int 0) } in
  let page = find_room t words in
  place t page obj words;
  obj.address

let get_field t ~addr i = (obj_at t addr).fields.(i)

let set_field t ~addr i v = (obj_at t addr).fields.(i) <- v

let is_live t ~addr = Hashtbl.mem t.objects addr

let add_root t v =
  let r = { v } in
  t.roots <- r :: t.roots;
  r

let read_root r = r.v

let remove_root t r =
  t.roots <- List.filter (fun x -> x != r) t.roots

let add_ambiguous_root t a = t.ambiguous <- a :: t.ambiguous

let set_auto t b = t.auto <- b

let reachable_words t =
  (* Live = reachable from roots and ambiguous roots. *)
  let live = Hashtbl.create 256 in
  let rec trace = function
    | Int _ -> ()
    | Ptr a ->
      if not (Hashtbl.mem live a) then
        match Hashtbl.find_opt t.objects a with
        | None -> ()
        | Some o -> Hashtbl.replace live a (); Array.iter trace o.fields in
  List.iter (fun r -> trace r.v) t.roots;
  List.iter (fun a -> trace (Ptr a)) t.ambiguous;
  Hashtbl.fold
    (fun a _ acc -> acc + Array.length (Hashtbl.find t.objects a).fields)
    live 0

let live_words t = reachable_words t

let heap_words t =
  Hashtbl.fold (fun _ o acc -> acc + Array.length o.fields) t.objects 0

let owner_words t ~owner =
  Hashtbl.fold
    (fun _ o acc ->
      if String.equal o.owner owner then acc + Array.length o.fields else acc)
    t.objects 0

let stats t = { t.stats with collections = t.stats.collections }

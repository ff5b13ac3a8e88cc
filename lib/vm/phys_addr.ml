module Machine = Spin_machine.Machine
module Phys_mem = Spin_machine.Phys_mem
module Clock = Spin_machine.Clock
module Addr = Spin_machine.Addr
module Trace = Spin_machine.Trace
module Bitset = Spin_dstruct.Bitset
module Capability = Spin_core.Capability
module Dispatcher = Spin_core.Dispatcher

type run = {
  first_pfn : int;
  npages : int;
  owner : string;
}

type attrib = { contiguous : bool }

let default_attrib = { contiguous = false }

type page = run Capability.t

type victim_request = { requester : string }

exception Out_of_memory

(* The live set is threaded through arrays indexed by a page's first
   frame: [slots.(pfn)] holds the [Some] of the page whose run starts
   there, built once at its allocation, and [older]/[newer] link those
   first frames in allocation order, [-1] ending the chain. A release
   unlinks its page in place. The arrays grow to the highest first
   frame allocated, not the machine's frame count. *)
type t = {
  machine : Machine.t;
  used : Bitset.t;
  referenced : Bitset.t;                 (* per-pfn reference bits *)
  mutable slots : page option array;
  mutable older : int array;
  mutable newer : int array;
  mutable newest : int;
  mutable oldest : int;
  reclaim : (page, page) Dispatcher.event;
  select_victim : (victim_request, page option) Dispatcher.event;
  mutable invalidates : (page -> unit) list;
  mutable in_reclaim : bool;             (* re-entrancy guard *)
  mutable reclaim_enabled : bool;
  mutable reclaim_count : int;
  mutable oom_count : int;
}

let oldest t = if t.oldest < 0 then None else t.slots.(t.oldest)

(* Whether [page] is live here: this service minted it and has not
   released it. *)
let tracks t page =
  match Capability.deref_opt page with
  | None -> false
  | Some run ->
    run.first_pfn < Array.length t.slots
    && (match t.slots.(run.first_pfn) with
        | Some p -> Capability.equal p page
        | None -> false)

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let link t pfn page =
  if pfn >= Array.length t.slots then begin
    let n = max (2 * Array.length t.slots) (pfn + 1) in
    t.slots <- grow t.slots n None;
    t.older <- grow t.older n (-1);
    t.newer <- grow t.newer n (-1)
  end;
  t.slots.(pfn) <- page;
  t.older.(pfn) <- t.newest;
  t.newer.(pfn) <- -1;
  if t.newest >= 0 then t.newer.(t.newest) <- pfn else t.oldest <- pfn;
  t.newest <- pfn

let unlink t pfn =
  let o = t.older.(pfn) and n = t.newer.(pfn) in
  if o >= 0 then t.newer.(o) <- n else t.oldest <- n;
  if n >= 0 then t.older.(n) <- o else t.newest <- o;
  t.slots.(pfn) <- None

let create machine dispatcher =
  let frames = Phys_mem.frames machine.Machine.mem in
  (* The primary victim selector needs the service record it is part
     of; tie the knot through a forward cell. *)
  let self = ref None in
  let t =
    { machine;
      used = Bitset.create frames;
      referenced = Bitset.create frames;
      slots = Array.make 64 None;
      older = Array.make 64 (-1);
      newer = Array.make 64 (-1);
      newest = -1;
      oldest = -1;
      reclaim =
        Dispatcher.declare dispatcher ~name:"PhysAddr.Reclaim" ~owner:"PhysAddr"
          (fun candidate -> candidate);
      select_victim =
        Dispatcher.declare dispatcher ~name:"PhysAddr.SelectVictim"
          ~owner:"PhysAddr"
          (fun (_ : victim_request) ->
            (* Default policy: FIFO — oldest live allocation. *)
            match !self with
            | None -> None
            | Some t -> oldest t);
      invalidates = [];
      in_reclaim = false;
      reclaim_enabled = true;
      reclaim_count = 0;
      oom_count = 0 } in
  self := Some t;
  t

let total_pages t = Bitset.length t.used

let free_pages t = Bitset.length t.used - Bitset.count t.used

let reclaim_event t = t.reclaim

let select_victim_event t = t.select_victim

let add_invalidate t f = t.invalidates <- t.invalidates @ [ f ]

let set_reclaim_enabled t enabled = t.reclaim_enabled <- enabled

let reclaims t = t.reclaim_count

let oom_failures t = t.oom_count

(* Walks oldest to newest, consing, so the list comes out newest
   first. *)
let rec newest_first t pfn acc =
  if pfn < 0 then acc
  else
    match t.slots.(pfn) with
    | Some p -> newest_first t t.newer.(pfn) (p :: acc)
    | None -> assert false                (* every linked frame holds its page *)

let live_pages t = newest_first t t.oldest []

let page_run = Capability.deref

let page_owner page =
  Option.map (fun r -> r.owner) (Capability.deref_opt page)

let owned_by page owner =
  match Capability.deref_opt page with
  | Some r -> String.equal r.owner owner
  | None -> false

(* ------------------------------------------------------------------ *)
(* Reference bits (for second-chance and friends)                     *)
(* ------------------------------------------------------------------ *)

let touch t page =
  match Capability.deref_opt page with
  | None -> ()
  | Some run ->
    for pfn = run.first_pfn to run.first_pfn + run.npages - 1 do
      Bitset.set t.referenced pfn
    done

let referenced t page =
  match Capability.deref_opt page with
  | None -> false
  | Some run ->
    let rec scan pfn =
      pfn < run.first_pfn + run.npages
      && (Bitset.mem t.referenced pfn || scan (pfn + 1)) in
    scan run.first_pfn

let clear_referenced t page =
  match Capability.deref_opt page with
  | None -> ()
  | Some run ->
    for pfn = run.first_pfn to run.first_pfn + run.npages - 1 do
      Bitset.clear t.referenced pfn
    done

(* ------------------------------------------------------------------ *)
(* Page contents                                                      *)
(* ------------------------------------------------------------------ *)

let check_range fname run ~off ~len =
  if off < 0 || len < 0 || off + len > run.npages * Addr.page_size then
    invalid_arg fname

let read_into t page ~off ~len buf ~pos =
  let run = Capability.deref page in
  check_range "PhysAddr.read_into" run ~off ~len;
  Phys_mem.read_into t.machine.Machine.mem
    ~pa:(Addr.pa_of_page run.first_pfn + off) ~len buf ~pos

let fill t page ~off ~len src ~pos =
  let run = Capability.deref page in
  check_range "PhysAddr.fill" run ~off ~len;
  if pos < 0 || pos + len > Bytes.length src then invalid_arg "PhysAddr.fill";
  let copied = ref 0 in
  while !copied < len do
    let abs = off + !copied in
    let frame = run.first_pfn + abs / Addr.page_size in
    let foff = abs mod Addr.page_size in
    let chunk = min (len - !copied) (Addr.page_size - foff) in
    Bytes.blit src (pos + !copied)
      (Phys_mem.frame_bytes t.machine.Machine.mem frame) foff chunk;
    copied := !copied + chunk
  done

(* ------------------------------------------------------------------ *)
(* Allocation and reclamation                                         *)
(* ------------------------------------------------------------------ *)

(* The first of [n] frames honouring the attributes, or -1. *)
let find_frames t ~attrib ~n =
  match
    if attrib.contiguous || n > 1 then Bitset.find_clear_run t.used n
    else Bitset.find_first_clear t.used
  with
  | Some first -> first
  | None -> -1

let release_frames t run =
  for i = run.first_pfn to run.first_pfn + run.npages - 1 do
    Bitset.clear t.used i;
    Bitset.clear t.referenced i
  done

let rec invalidate page = function
  | [] -> ()
  | f :: rest -> f page; invalidate page rest

(* The answer is the released page's own [Some], from its slot. *)
let pick_and_release t request =
  match Dispatcher.raise_event t.select_victim request with
  | None -> None
  | Some candidate ->
    let victim = Dispatcher.raise_event t.reclaim candidate in
    (* A handler may only substitute a page this service minted and
       still tracks; anything else falls back to the candidate. *)
    let victim = if tracks t victim then victim else candidate in
    match Capability.deref_opt victim with
    | Some _ when not (tracks t victim) -> None
    | None -> None
    | Some run ->
      let released = t.slots.(run.first_pfn) in
      invalidate victim t.invalidates;
      release_frames t run;
      Capability.revoke victim;
      unlink t run.first_pfn;
      t.reclaim_count <- t.reclaim_count + 1;
      released

let do_reclaim t request =
  (* A reclaim handler that itself allocates must see a clean
     Out_of_memory, never recurse back in here. [in_reclaim] is reset
     in an exception arm, not in a [Fun.protect] closure per call. *)
  if t.in_reclaim || not t.reclaim_enabled then None
  else begin
    t.in_reclaim <- true;
    let tr = Trace.of_clock t.machine.Machine.clock in
    let sp =
      if Trace.on tr then
        Trace.begin_span tr ~cat:"vm" ~name:"reclaim"
          ~args:[ ("requester", request.requester) ] ()
      else Trace.null_span in
    match pick_and_release t request with
    | outcome ->
      t.in_reclaim <- false;
      if Trace.on tr then
        Trace.end_span tr sp
          ~args:[ ("outcome",
                   match outcome with Some _ -> "freed" | None -> "empty") ];
      outcome
    | exception e -> t.in_reclaim <- false; raise e
  end

let service_request = { requester = "PhysAddr" }

let force_reclaim t = do_reclaim t service_request

let rec alloc_loop t ~attrib ~owner ~bytes =
  let n = Addr.round_up_pages bytes in
  Clock.charge t.machine.Machine.clock
    (Clock.cost t.machine.Machine.clock).Spin_machine.Cost.phys_alloc;
  let first = find_frames t ~attrib ~n in
  if first >= 0 then begin
    for pfn = first to first + n - 1 do Bitset.set t.used pfn done;
    let cap = Capability.mint ~owner:"PhysAddr" { first_pfn = first; npages = n; owner } in
    link t first (Some cap);
    cap
  end else
    (* Memory pressure: reclaim a victim and retry once per victim. *)
    match do_reclaim t { requester = owner } with
    | Some _ -> alloc_loop t ~attrib ~owner ~bytes
    | None ->
      t.oom_count <- t.oom_count + 1;
      raise Out_of_memory

let allocate ?(attrib = default_attrib) t ~owner ~bytes =
  if bytes <= 0 then invalid_arg "PhysAddr.allocate: no bytes";
  alloc_loop t ~attrib ~owner ~bytes

let deallocate t page =
  match Capability.deref_opt page with
  | None -> ()
  | Some run ->
    if tracks t page then unlink t run.first_pfn;
    release_frames t run;
    Capability.revoke page

let zero t page =
  let run = Capability.deref page in
  for i = run.first_pfn to run.first_pfn + run.npages - 1 do
    Phys_mem.zero_frame t.machine.Machine.mem i
  done

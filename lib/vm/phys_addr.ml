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

type t = {
  machine : Machine.t;
  used : Bitset.t;
  referenced : Bitset.t;                 (* per-pfn reference bits *)
  mutable live : page list;              (* candidates, newest first *)
  reclaim : (page, page) Dispatcher.event;
  select_victim : (victim_request, page option) Dispatcher.event;
  mutable invalidates : (page -> unit) list;
  mutable in_reclaim : bool;             (* re-entrancy guard *)
  mutable reclaim_enabled : bool;
  mutable reclaim_count : int;
  mutable oom_count : int;
}

(* The last of [pages], the oldest live allocation, reached without the
   reversed copy. *)
let rec oldest = function
  | [] -> None
  | [ p ] -> Some p
  | _ :: rest -> oldest rest

(* Whether [pages] holds [page], with no closure built per test. *)
let rec tracks page = function
  | [] -> false
  | p :: rest -> Capability.equal p page || tracks page rest

let create machine dispatcher =
  let frames = Phys_mem.frames machine.Machine.mem in
  (* The primary victim selector needs the service record it is part
     of; tie the knot through a forward cell. *)
  let self = ref None in
  let t =
    { machine;
      used = Bitset.create frames;
      referenced = Bitset.create frames;
      live = [];
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
            | Some t -> oldest t.live);
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

let live_pages t = t.live

let page_run = Capability.deref

let page_owner page =
  Option.map (fun r -> r.owner) (Capability.deref_opt page)

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

let fill t page ~off data =
  let run = Capability.deref page in
  let len = Bytes.length data in
  check_range "PhysAddr.fill" run ~off ~len;
  let rec loop pos =
    if pos < len then begin
      let abs = off + pos in
      let frame = run.first_pfn + abs / Addr.page_size in
      let foff = abs mod Addr.page_size in
      let chunk = min (len - pos) (Addr.page_size - foff) in
      Bytes.blit data pos
        (Phys_mem.frame_bytes t.machine.Machine.mem frame) foff chunk;
      loop (pos + chunk)
    end in
  loop 0

(* ------------------------------------------------------------------ *)
(* Allocation and reclamation                                         *)
(* ------------------------------------------------------------------ *)

(* Find [n] frames honouring the attributes, or None. *)
let find_frames t ~attrib ~n =
  if attrib.contiguous || n > 1 then
    Bitset.find_clear_run t.used n
    |> Option.map (fun start -> List.init n (fun i -> start + i))
  else Bitset.find_first_clear t.used |> Option.map (fun f -> [ f ])

let release_frames t run =
  for i = run.first_pfn to run.first_pfn + run.npages - 1 do
    Bitset.clear t.used i;
    Bitset.clear t.referenced i
  done

let pick_and_release t ~requester =
  match
    Dispatcher.raise_event t.select_victim { requester }
  with
  | None -> None
  | Some candidate ->
    let victim = Dispatcher.raise_event t.reclaim candidate in
    (* A handler may only substitute a page this service minted and
       still tracks; anything else falls back to the candidate. *)
    let victim =
      if tracks victim t.live then victim
      else candidate in
    match Capability.deref_opt victim with
    | None -> None
    | Some run ->
      List.iter (fun f -> f victim) t.invalidates;
      release_frames t run;
      Capability.revoke victim;
      t.live <- List.filter (fun p -> not (Capability.equal p victim)) t.live;
      t.reclaim_count <- t.reclaim_count + 1;
      Some victim

let do_reclaim t ~requester =
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
          ~args:[ ("requester", requester) ] ()
      else Trace.null_span in
    match pick_and_release t ~requester with
    | outcome ->
      t.in_reclaim <- false;
      if Trace.on tr then
        Trace.end_span tr sp
          ~args:[ ("outcome",
                   match outcome with Some _ -> "freed" | None -> "empty") ];
      outcome
    | exception e -> t.in_reclaim <- false; raise e
  end

let force_reclaim t = do_reclaim t ~requester:"PhysAddr"

let rec alloc_loop t ~attrib ~owner ~bytes =
  let n = Addr.round_up_pages bytes in
  Clock.charge t.machine.Machine.clock
    (Clock.cost t.machine.Machine.clock).Spin_machine.Cost.phys_alloc;
  match find_frames t ~attrib ~n with
  | Some frames ->
    List.iter (Bitset.set t.used) frames;
    let run = { first_pfn = List.hd frames; npages = n; owner } in
    let cap = Capability.mint ~owner:"PhysAddr" run in
    t.live <- cap :: t.live;
    cap
  | None ->
    (* Memory pressure: reclaim a victim and retry once per victim. *)
    match do_reclaim t ~requester:owner with
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
    release_frames t run;
    Capability.revoke page;
    t.live <- List.filter (fun p -> not (Capability.equal p page)) t.live

let zero t page =
  let run = Capability.deref page in
  for i = run.first_pfn to run.first_pfn + run.npages - 1 do
    Phys_mem.zero_frame t.machine.Machine.mem i
  done

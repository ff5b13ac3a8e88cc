(* Hierarchical timer wheel: 4 levels x 256 slots, 2^(8k) ticks per
   slot at level k, so the wheel spans 2^32 ticks ahead of now.
   Deadlines land at the level whose slot width bounds their distance,
   which keeps every slot's window disjoint from its neighbours'; as
   time crosses a higher-level window the slot cascades into the
   levels below. Further deadlines overflow into a Pqueue and migrate
   in lazily.

   The per-advance fast path is one comparison: [approx_next] is a
   lower bound on the earliest non-due deadline, so advancing short of
   it just moves the clock. Only when a deadline is actually crossed
   do we walk the (at most 256 per level) slots in range, collect the
   due entries, sort them by (deadline, birth sequence) — exactly the
   order a binary heap with FIFO tie-break fires — and append them to
   the due list.

   Entries are intrusive doubly-linked nodes recycled through a free
   list threaded over [e_next]; a freed entry holds the user-supplied
   [dummy] payload so the pool pins nothing. *)

let slot_bits = 8
let wheel_slots = 1 lsl slot_bits
let slot_mask = wheel_slots - 1
let levels = 4
let range = 1 lsl (slot_bits * levels)

type 'a entry = {
  mutable e_time : int;
  mutable e_seq : int;                   (* -1 on sentinels / freed *)
  mutable e_value : 'a;
  mutable e_prev : 'a entry;
  mutable e_next : 'a entry;
  mutable e_where : int;                 (* w_* code or level*256+idx *)
  mutable e_ovf : 'a entry Pqueue.entry option;
}

type 'a handle = { h_ent : 'a entry; h_seq : int }

let w_free = -1
let w_due = -2
let w_overflow = -3

type pool_stats = {
  pool_hits : int;
  pool_misses : int;
}

(* Slot occupancy, 32 slots per word: lets the scans touch only
   occupied slots instead of all 1024 sentinels. *)
let occ_words = wheel_slots / 32

type 'a t = {
  dummy : 'a;
  mutable w_now : int;
  mutable cascaded : int;                (* slot ranges processed up to here *)
  slots : 'a entry array array;          (* [level].[idx] sentinels *)
  occ : int array array;                 (* [level].[idx/32] occupancy bits *)
  due : 'a entry;                        (* due-list sentinel, FIFO *)
  overflow : 'a entry Pqueue.t;
  mutable next_seq : int;
  mutable live : int;                    (* scheduled + due *)
  mutable due_n : int;
  mutable wheel_n : int;                 (* entries linked into slots *)
  mutable approx_next : int;             (* lower bound, max_int if none *)
  (* [approx_next] is exactly the earliest non-due deadline: set by a
     slow advance, kept by [place]/[add] (a min), cleared by cancelling
     an entry at that deadline. *)
  mutable exact : bool;
  nil : 'a entry;                        (* free-list terminator *)
  mutable pool : 'a entry;
  mutable hits : int;
  mutable misses : int;
  (* Reusable collection buffers for [slow_advance]: the due batch and
     the entries to re-place, so advancing allocates nothing but the
     sorted batch view itself. *)
  mutable scratch : 'a entry array;
  mutable scratch_n : int;
  mutable reloc : 'a entry array;
  mutable reloc_n : int;
}

let sentinel dummy =
  let rec s =
    { e_time = 0; e_seq = -1; e_value = dummy; e_prev = s; e_next = s;
      e_where = w_free; e_ovf = None } in
  s

let create ?(start = 0) ~dummy () =
  let nil = sentinel dummy in
  { dummy;
    w_now = start;
    cascaded = start;
    slots =
      Array.init levels (fun _ ->
          Array.init wheel_slots (fun _ -> sentinel dummy));
    occ = Array.make_matrix levels occ_words 0;
    due = sentinel dummy;
    overflow =
      Pqueue.create ~cmp:(fun a b ->
          if a.e_time < b.e_time then -1
          else if a.e_time > b.e_time then 1
          else a.e_seq - b.e_seq);
    next_seq = 0; live = 0; due_n = 0; wheel_n = 0; approx_next = max_int;
    exact = true; nil; pool = nil; hits = 0; misses = 0;
    scratch = [||]; scratch_n = 0; reloc = [||]; reloc_n = 0 }

let now t = t.w_now

let size t = t.live

let pool_stats t = { pool_hits = t.hits; pool_misses = t.misses }

(* ------------------------------------------------------------------ *)
(* Intrusive circular lists                                           *)
(* ------------------------------------------------------------------ *)

let unlink e =
  e.e_prev.e_next <- e.e_next;
  e.e_next.e_prev <- e.e_prev;
  e.e_prev <- e;
  e.e_next <- e

let link_back sent e =
  e.e_prev <- sent.e_prev;
  e.e_next <- sent;
  sent.e_prev.e_next <- e;
  sent.e_prev <- e

(* ------------------------------------------------------------------ *)
(* Entry pool                                                         *)
(* ------------------------------------------------------------------ *)

let alloc t ~time ~value =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.pool != t.nil then begin
    let e = t.pool in
    t.pool <- e.e_next;
    e.e_prev <- e;
    e.e_next <- e;
    e.e_time <- time;
    e.e_seq <- seq;
    e.e_value <- value;
    t.hits <- t.hits + 1;
    e
  end
  else begin
    t.misses <- t.misses + 1;
    let rec e =
      { e_time = time; e_seq = seq; e_value = value; e_prev = e; e_next = e;
        e_where = w_free; e_ovf = None } in
    e
  end

let free t e =
  e.e_where <- w_free;
  e.e_seq <- -1;
  e.e_value <- t.dummy;
  e.e_ovf <- None;
  e.e_prev <- e;
  e.e_next <- t.pool;                    (* free-list link *)
  t.pool <- e

(* ------------------------------------------------------------------ *)
(* Placement                                                          *)
(* ------------------------------------------------------------------ *)

let level_of d =
  if d < 1 lsl slot_bits then 0
  else if d < 1 lsl (2 * slot_bits) then 1
  else if d < 1 lsl (3 * slot_bits) then 2
  else 3

let push_due t e =
  link_back t.due e;
  e.e_where <- w_due;
  t.due_n <- t.due_n + 1

let occ_set t lvl idx =
  let w = idx lsr 5 in
  t.occ.(lvl).(w) <- t.occ.(lvl).(w) lor (1 lsl (idx land 31))

let occ_clear t lvl idx =
  let w = idx lsr 5 in
  t.occ.(lvl).(w) <- t.occ.(lvl).(w) land lnot (1 lsl (idx land 31))

(* Precondition: now < e.e_time < now + range. The level is chosen by
   distance from now, so the target slot's window lies strictly ahead
   of the cascade position and will be drained when crossed. *)
let place t e =
  let lvl = level_of (e.e_time - t.w_now) in
  let idx = (e.e_time asr (slot_bits * lvl)) land slot_mask in
  link_back t.slots.(lvl).(idx) e;
  occ_set t lvl idx;
  e.e_where <- (lvl lsl slot_bits) lor idx;
  t.wheel_n <- t.wheel_n + 1;
  if e.e_time < t.approx_next then t.approx_next <- e.e_time

let add t ~time v =
  let time = max time t.w_now in         (* past deadlines are due now *)
  let e = alloc t ~time ~value:v in
  if time = t.w_now then push_due t e
  else if time - t.w_now >= range then begin
    e.e_where <- w_overflow;
    e.e_ovf <- Some (Pqueue.add t.overflow e);
    if time < t.approx_next then t.approx_next <- time
  end
  else place t e;
  t.live <- t.live + 1;
  { h_ent = e; h_seq = e.e_seq }

(* ------------------------------------------------------------------ *)
(* Cancellation                                                       *)
(* ------------------------------------------------------------------ *)

let is_pending h = h.h_ent.e_seq = h.h_seq && h.h_ent.e_where <> w_free

let cancel t h =
  let e = h.h_ent in
  if e.e_seq <> h.h_seq || e.e_where = w_free then false
  else begin
    (* Removing the earliest non-due deadline leaves [approx_next] a
       lower bound only. *)
    if e.e_where <> w_due && e.e_time <= t.approx_next then t.exact <- false;
    if e.e_where = w_overflow then
      (match e.e_ovf with
       | Some pe -> Pqueue.remove t.overflow pe
       | None -> ())
    else begin
      if e.e_where = w_due then begin
        t.due_n <- t.due_n - 1;
        unlink e
      end
      else begin
        t.wheel_n <- t.wheel_n - 1;
        let lvl = e.e_where lsr slot_bits
        and idx = e.e_where land slot_mask in
        unlink e;
        let sent = t.slots.(lvl).(idx) in
        if sent.e_next == sent then occ_clear t lvl idx
      end
    end;
    t.live <- t.live - 1;
    free t e;
    true
  end

(* ------------------------------------------------------------------ *)
(* Advancing and firing                                               *)
(* ------------------------------------------------------------------ *)

let slot_min sent =
  let m = ref max_int in
  let e = ref sent.e_next in
  while !e != sent do
    if !e.e_time < !m then m := !e.e_time;
    e := !e.e_next
  done;
  !m

let bit_index b =
  let i = ref 0 and b = ref b in
  if !b land 0xFFFF = 0 then begin i := 16; b := !b lsr 16 end;
  if !b land 0xFF = 0 then begin i := !i + 8; b := !b lsr 8 end;
  if !b land 0xF = 0 then begin i := !i + 4; b := !b lsr 4 end;
  if !b land 0x3 = 0 then begin i := !i + 2; b := !b lsr 2 end;
  if !b land 0x1 = 0 then incr i;
  !i

(* This level's earliest deadline: the min of its first occupied slot
   in positional order from now. Sound only when [cascaded = w_now]:
   then every level-k entry sits within 2^(8k) * 256 ticks of now, so
   slot position order is window time order and the first occupied
   slot's window precedes every other occupied slot's. (Levels still
   have to be compared against each other — a level-2 entry whose
   window is about to open can precede a level-1 entry.) *)
let level_candidate t lvl =
  let start = t.w_now asr (slot_bits * lvl) in
  let occ = t.occ.(lvl) in
  let best = ref max_int in
  let pos = ref (start + 1) in
  let remaining = ref wheel_slots in
  while !remaining > 0 do
    let idx = !pos land slot_mask in
    let w = idx lsr 5 in
    let bit = idx land 31 in
    let span = min (32 - bit) !remaining in
    let bits = occ.(w) land ((((1 lsl span) - 1) lsl bit) land 0xFFFFFFFF) in
    if bits <> 0 then begin
      let b = bits land (-bits) in         (* lowest bit = first position *)
      best := slot_min t.slots.(lvl).((w lsl 5) lor bit_index b);
      remaining := 0
    end
    else begin
      pos := !pos + span;
      remaining := !remaining - span
    end
  done;
  !best

(* Earliest deadline outside the due list. Precondition: [cascaded =
   w_now] (callers catch up first). One first-occupied-slot probe per
   level plus the overflow peek — O(occupied words), independent of
   how many entries are pending. *)
let scan_next t =
  let best =
    ref (match Pqueue.peek t.overflow with
        | Some e -> e.e_time
        | None -> max_int) in
  if t.wheel_n > 0 then
    for lvl = 0 to levels - 1 do
      let c = level_candidate t lvl in
      if c < !best then best := c
    done;
  !best

let buf_push buf n nil e =
  let a =
    if n < Array.length !buf then !buf
    else begin
      let na = Array.make (max 64 (2 * n)) nil in
      Array.blit !buf 0 na 0 n;
      buf := na;
      na
    end in
  a.(n) <- e

let scratch_push t e =
  let buf = ref t.scratch in
  buf_push buf t.scratch_n t.nil e;
  t.scratch <- !buf;
  t.scratch_n <- t.scratch_n + 1

let reloc_push t e =
  let buf = ref t.reloc in
  buf_push buf t.reloc_n t.nil e;
  t.reloc <- !buf;
  t.reloc_n <- t.reloc_n + 1

let due_cmp a b =
  if a.e_time < b.e_time then -1
  else if a.e_time > b.e_time then 1
  else a.e_seq - b.e_seq                 (* seqs unique and non-negative *)

(* Ranges are computed from [cascaded], not [w_now]: the fast path
   moves [w_now] without touching the slots, so the entries between
   the two positions still sit where the last slow advance left
   them. *)
let slow_advance t target =
  let old = t.cascaded in
  t.w_now <- target;
  t.cascaded <- target;
  t.scratch_n <- 0;
  t.reloc_n <- 0;
  for lvl = 0 to levels - 1 do
    let shift = slot_bits * lvl in
    let start_abs = old asr shift and end_abs = target asr shift in
    if end_abs > start_abs then begin
      (* Walk only the occupied slots of the crossed positions, a
         bitmap word at a time. *)
      let occ = t.occ.(lvl) in
      let pos = ref (start_abs + 1) in
      let remaining = ref (min (end_abs - start_abs) wheel_slots) in
      while !remaining > 0 do
        let first = !pos land slot_mask in
        let w = first lsr 5 in
        let bit = first land 31 in
        let span = min (32 - bit) !remaining in
        let bits =
          ref (occ.(w) land ((((1 lsl span) - 1) lsl bit) land 0xFFFFFFFF)) in
        while !bits <> 0 do
          let b = !bits land (- !bits) in
          bits := !bits lxor b;
          let idx = (w lsl 5) lor bit_index b in
          let sent = t.slots.(lvl).(idx) in
          while sent.e_next != sent do
            let e = sent.e_next in
            unlink e;
            t.wheel_n <- t.wheel_n - 1;
            if e.e_time <= target then scratch_push t e
            else reloc_push t e
          done;
          occ_clear t lvl idx
        done;
        pos := !pos + span;
        remaining := !remaining - span
      done
    end
  done;
  (* Cascade survivors after the walk: re-placing mid-drain could drop
     an entry into a slot index this same walk is about to visit
     (indices alias mod 256 when the walk wraps a level). *)
  for i = 0 to t.reloc_n - 1 do place t t.reloc.(i) done;
  let rec drain_overflow () =
    match Pqueue.peek t.overflow with
    | Some e when e.e_time <= target ->
      ignore (Pqueue.pop t.overflow);
      e.e_ovf <- None;
      scratch_push t e;
      drain_overflow ()
    | Some e when e.e_time - target < range ->
      ignore (Pqueue.pop t.overflow);
      e.e_ovf <- None;
      place t e;
      drain_overflow ()
    | Some _ | None -> () in
  drain_overflow ();
  (* The one allocation of the slow path: an exact-size view of the
     batch, heap-sorted in place ([due_cmp] is total — seqs are unique
     — so stability is moot). *)
  if t.scratch_n > 0 then begin
    let batch = Array.sub t.scratch 0 t.scratch_n in
    if t.scratch_n > 1 then Array.sort due_cmp batch;
    Array.iter (fun e -> push_due t e) batch;
    t.scratch_n <- 0
  end;
  t.approx_next <- scan_next t;
  t.exact <- true

let advance t target =
  if target > t.w_now then begin
    if target < t.approx_next then begin
      t.w_now <- target;
      (* With no slot entries there is nothing to cascade, so the
         cascade position may ride along for free. *)
      if t.wheel_n = 0 then t.cascaded <- target
    end
    else slow_advance t target
  end

let pop_due t =
  if t.due_n = 0 then None
  else begin
    let e = t.due.e_next in
    unlink e;
    t.due_n <- t.due_n - 1;
    t.live <- t.live - 1;
    let v = e.e_value in
    free t e;
    Some v
  end

let next_deadline t =
  (* O(1) while [exact] holds. Otherwise a slow advance to now catches
     the cascade position up (the ordered scan requires it) and
     re-derives the minimum; the walk surfaces no due entry, because
     the fast path never crosses a deadline, so skipping it while
     [exact] holds leaves the later advance the same sorted batch. *)
  if t.due_n = 0 && t.live > 0 && not t.exact then slow_advance t t.w_now;
  if t.due_n > 0 then Some t.due.e_next.e_time
  else if t.live = 0 || t.approx_next = max_int then None
  else Some t.approx_next

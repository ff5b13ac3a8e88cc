(* [nodes.(0 .. size-1)] is the heap; [nodes.(size .. allocated-1)]
   are freed records awaiting reuse, so the pool is the array's tail
   and recycling a record moves nothing but the record itself. Slots at
   or above [allocated] alias a record below it (the filler [grow]
   used) and are never read. *)

type 'a node = {
  mutable key : int;
  mutable seq : int;                    (* insertion order; -1 while pooled *)
  mutable value : 'a;                   (* [dummy] while pooled *)
  mutable pos : int;                    (* index in [nodes] *)
}

(* Refilled in place by [arm]: one handle carries element after
   element. An unarmed handle points at the heap's [idle] record, which
   is never queued, with a generation no record ever carries. *)
type 'a handle = { mutable node : 'a node; mutable gen : int }

type 'a t = {
  dummy : 'a;
  idle : 'a node;
  mutable nodes : 'a node array;
  mutable size : int;
  mutable allocated : int;
  mutable next_seq : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~dummy =
  { dummy; idle = { key = 0; seq = -1; value = dummy; pos = 0 };
    nodes = [||]; size = 0; allocated = 0; next_seq = 0; hits = 0;
    misses = 0 }

let size t = t.size

let is_empty t = t.size = 0

let pool_hits t = t.hits

let pool_misses t = t.misses

let before a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let place nodes i n = nodes.(i) <- n; n.pos <- i

(* Both sifts carry [n] into the hole at [i] instead of swapping, so
   each level writes one slot. *)
let rec sift_up nodes n i =
  let parent = (i - 1) / 2 in
  if i > 0 && before n nodes.(parent) then begin
    place nodes i nodes.(parent);
    sift_up nodes n parent
  end
  else place nodes i n

let rec sift_down nodes size n i =
  let l = (2 * i) + 1 in
  if l >= size then place nodes i n
  else begin
    let c = if l + 1 < size && before nodes.(l + 1) nodes.(l) then l + 1 else l in
    if before nodes.(c) n then begin
      place nodes i nodes.(c);
      sift_down nodes size n c
    end
    else place nodes i n
  end

let fresh t key v =
  t.misses <- t.misses + 1;
  let n = { key; seq = -1; value = v; pos = 0 } in
  if t.allocated = Array.length t.nodes then begin
    let nodes = Array.make (max 8 (2 * t.allocated)) n in
    Array.blit t.nodes 0 nodes 0 t.allocated;
    t.nodes <- nodes
  end;
  t.allocated <- t.allocated + 1;
  n

let insert t key v =
  let n =
    if t.size < t.allocated then begin
      t.hits <- t.hits + 1;
      t.nodes.(t.size)
    end
    else fresh t key v in
  n.key <- key;
  n.seq <- t.next_seq;
  n.value <- v;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t.nodes n (t.size - 1);
  n

let add t key v = ignore (insert t key v)

let handle t = { node = t.idle; gen = -2 }

let min_key t = if t.size = 0 then max_int else t.nodes.(0).key

(* Refill the hole at [i] with the last heap record, then park the
   removed record at the pool's head with its value dropped. *)
let delete_at t i =
  let n = t.nodes.(i) in
  let last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    let m = t.nodes.(last) in
    if i > 0 && before m t.nodes.((i - 1) / 2) then sift_up t.nodes m i
    else sift_down t.nodes last m i
  end;
  n.seq <- -1;
  n.value <- t.dummy;
  place t.nodes last n

let pop t =
  if t.size = 0 then invalid_arg "Pqueue.pop: empty";
  let v = t.nodes.(0).value in
  delete_at t 0;
  v

let mem h = h.node.seq = h.gen

let arm t h key v =
  if mem h then invalid_arg "Pqueue.arm: element still queued";
  let n = insert t key v in
  h.node <- n;
  h.gen <- n.seq

let remove t h =
  mem h && begin delete_at t h.node.pos; true end

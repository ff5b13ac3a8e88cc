type 'a t = {
  mutable slots : 'a array;     (* free slots hold [dummy] *)
  dummy : 'a;
  mutable head : int;           (* index of oldest element *)
  mutable len : int;
}

let create ~dummy n =
  if n <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { slots = Array.make n dummy; dummy; head = 0; len = 0 }

let is_empty t = t.len = 0

let length t = t.len

(* The slot [i] places past the head. *)
let index t i =
  let j = t.head + i and cap = Array.length t.slots in
  if j >= cap then j - cap else j

(* Doubles a full ring's slots, the oldest element moving to index 0. *)
let grow t =
  let cap = Array.length t.slots in
  let slots = Array.make (2 * cap) t.dummy in
  Array.blit t.slots t.head slots 0 (cap - t.head);
  Array.blit t.slots 0 slots (cap - t.head) t.head;
  t.slots <- slots;
  t.head <- 0

let add t v =
  if t.len = Array.length t.slots then grow t;
  t.slots.(index t t.len) <- v;
  t.len <- t.len + 1

let take t =
  if t.len = 0 then invalid_arg "Ring.take: empty";
  let v = t.slots.(t.head) in
  t.slots.(t.head) <- t.dummy;
  t.head <- index t 1;
  t.len <- t.len - 1;
  v

let pop t =
  if t.len = 0 then invalid_arg "Ring.pop: empty";
  t.len <- t.len - 1;
  let i = index t t.len in
  let v = t.slots.(i) in
  t.slots.(i) <- t.dummy;
  v

let peek t =
  if t.len = 0 then invalid_arg "Ring.peek: empty";
  t.slots.(t.head)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.slots.(index t i)
  done

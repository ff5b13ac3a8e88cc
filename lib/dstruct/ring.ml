type 'a t = {
  slots : 'a option array;
  mutable head : int;           (* index of oldest element *)
  mutable len : int;
}

let create n =
  if n <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { slots = Array.make n None; head = 0; len = 0 }

let is_empty t = t.len = 0

let is_full t = t.len = Array.length t.slots

let push t v =
  if is_full t then false
  else begin
    let tail = (t.head + t.len) mod Array.length t.slots in
    t.slots.(tail) <- Some v;
    t.len <- t.len + 1;
    true
  end

let pop t =
  if t.len = 0 then None
  else begin
    let v = t.slots.(t.head) in
    t.slots.(t.head) <- None;
    t.head <- (t.head + 1) mod Array.length t.slots;
    t.len <- t.len - 1;
    v
  end

let iter f t =
  let cap = Array.length t.slots in
  for i = 0 to t.len - 1 do
    match t.slots.((t.head + i) mod cap) with
    | Some v -> f v
    | None -> assert false
  done

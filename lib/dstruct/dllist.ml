type 'a node = {
  value : 'a;
  owner : 'a t;
  mutable prev : 'a node option;
  mutable next : 'a node option;
  mutable linked : bool;
}

and 'a t = {
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable len : int;
}

let create () = { head = None; tail = None; len = 0 }

let is_empty t = t.len = 0

let length t = t.len

let push_back t v =
  let n = { value = v; owner = t; prev = t.tail; next = None; linked = true } in
  (match t.tail with
   | None -> t.head <- Some n
   | Some last -> last.next <- Some n);
  t.tail <- Some n;
  t.len <- t.len + 1;
  n

let unlink t n =
  (match n.prev with
   | None -> t.head <- n.next
   | Some p -> p.next <- n.next);
  (match n.next with
   | None -> t.tail <- n.prev
   | Some s -> s.prev <- n.prev);
  n.prev <- None;
  n.next <- None;
  n.linked <- false;
  t.len <- t.len - 1

let remove t n =
  if n.owner != t then invalid_arg "Dllist.remove: node from another list";
  if n.linked then unlink t n

let pop_front t =
  match t.head with
  | None -> None
  | Some n -> unlink t n; Some n.value

let value n = n.value

let is_linked n = n.linked

let first t = t.head
let next n = n.next

let fold f acc t =
  let rec loop acc = function
    | None -> acc
    | Some n -> loop (f acc n.value) n.next in
  loop acc t.head

let to_list t = List.rev (fold (fun acc v -> v :: acc) [] t)

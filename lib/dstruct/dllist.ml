(* Each node and each list holds [Some] of itself, built once at
   creation: linking stores those options in the neighbours' fields,
   so linking, unlinking and popping allocate nothing. *)
type 'a node = {
  value : 'a;
  mutable owner : 'a t option;          (* the list's [me]; [None] unlinked *)
  mutable prev : 'a node option;
  mutable next : 'a node option;
  me : 'a node option;
}

and 'a t = {
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable len : int;
  self : 'a t option;
}

let create () =
  let rec t = { head = None; tail = None; len = 0; self = Some t } in
  t

let node v =
  let rec n = { value = v; owner = None; prev = None; next = None; me = Some n } in
  n

let is_empty t = t.len = 0

let length t = t.len

let link_back t n =
  if n.owner != None then invalid_arg "Dllist.link_back: node already linked";
  n.owner <- t.self;
  n.prev <- t.tail;
  (match t.tail with
   | None -> t.head <- n.me
   | Some last -> last.next <- n.me);
  t.tail <- n.me;
  t.len <- t.len + 1

let push_back t v =
  let n = node v in
  link_back t n;
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
  n.owner <- None;
  t.len <- t.len - 1

let remove t n =
  match n.owner with
  | None -> ()
  | Some o ->
    if o != t then invalid_arg "Dllist.remove: node from another list";
    unlink t n

let pop_front t =
  match t.head with
  | None -> None
  | Some n as first -> unlink t n; first

let value n = n.value

let is_linked n = n.owner != None

let first t = t.head
let next n = n.next

let fold f acc t =
  let rec loop acc = function
    | None -> acc
    | Some n -> loop (f acc n.value) n.next in
  loop acc t.head

let to_list t = List.rev (fold (fun acc v -> v :: acc) [] t)

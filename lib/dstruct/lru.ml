(* The recency order is a doubly-linked list threaded through the
   entries themselves, with [Nil] ends: a hit relinks its own entry at
   the front and allocates nothing. [value] is always [Some]; [find]
   hands that very option back. *)
type ('k, 'v) entry =
  | Nil
  | Entry of {
      key : 'k;
      mutable value : 'v option;
      mutable prev : ('k, 'v) entry;
      mutable next : ('k, 'v) entry;
    }

type ('k, 'v) t = {
  capacity : int;
  on_evict : 'k -> 'v -> unit;
  table : ('k, ('k, 'v) entry) Hashtbl.t;
  mutable head : ('k, 'v) entry;          (* most recently used *)
  mutable tail : ('k, 'v) entry;
}

let create ?(on_evict = fun _ _ -> ()) ~capacity () =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  { capacity; on_evict; table = Hashtbl.create 64; head = Nil; tail = Nil }

let length t = Hashtbl.length t.table

let unlink t = function
  | Nil -> ()
  | Entry r ->
    (match r.prev with Nil -> t.head <- r.next | Entry p -> p.next <- r.next);
    (match r.next with Nil -> t.tail <- r.prev | Entry n -> n.prev <- r.prev);
    r.prev <- Nil;
    r.next <- Nil

let push_front t e =
  match e with
  | Nil -> ()
  | Entry r ->
    r.next <- t.head;
    (match t.head with Nil -> t.tail <- e | Entry h -> h.prev <- e);
    t.head <- e

let touch t e =
  if t.head != e then begin
    unlink t e;
    push_front t e
  end

(* [Hashtbl.find_opt] would box its answer; a miss raises instead. *)
let entry t k = match Hashtbl.find t.table k with e -> e | exception Not_found -> Nil

let value = function Entry r -> r.value | Nil -> None

let find t k =
  let e = entry t k in
  touch t e;
  value e

let peek t k = value (entry t k)

let evict t =
  match t.tail with
  | Nil -> ()
  | Entry r as e ->
    unlink t e;
    Hashtbl.remove t.table r.key;
    (match r.value with Some v -> t.on_evict r.key v | None -> ())

let add t k v =
  (match entry t k with
   | Entry r as e ->
     r.value <- Some v;
     touch t e
   | Nil ->
     let e = Entry { key = k; value = Some v; prev = Nil; next = Nil } in
     push_front t e;
     Hashtbl.replace t.table k e);
  while Hashtbl.length t.table > t.capacity do evict t done

let remove t k =
  let e = entry t k in
  unlink t e;
  Hashtbl.remove t.table k

let mem t k = Hashtbl.mem t.table k

(* Top level, not a local [let rec]: a walk builds no closure. *)
let rec remove_from t p x = function
  | Nil -> None
  | Entry r as e ->
    (match r.value with
     | Some v when p v x ->
       unlink t e;
       Hashtbl.remove t.table r.key;
       r.value
     | Some _ | None -> remove_from t p x r.next)

let remove_first t p x = remove_from t p x t.head

let least_recent t = value t.tail

let iter f t =
  let rec loop = function
    | Nil -> ()
    | Entry r ->
      let next = r.next in
      (match r.value with Some v -> f r.key v | None -> ());
      loop next in
  loop t.head

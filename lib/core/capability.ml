type 'a t = {
  id : int;
  owner : string;
  minted_epoch : int;
  cell : int ref;                 (* the owner's current epoch *)
  mutable resource : 'a option;
}

exception Revoked of string

let next_id = ref 0

(* One epoch cell per owner, shared by every capability that owner
   mints: advancing the epoch revokes a whole generation in O(1), and
   a dereference compares two ints instead of consulting a table. *)
let epoch_cells : (string, int ref) Hashtbl.t = Hashtbl.create 32

let epoch_cell owner =
  match Hashtbl.find_opt epoch_cells owner with
  | Some cell -> cell
  | None ->
    let cell = ref 0 in
    Hashtbl.replace epoch_cells owner cell;
    cell

let advance_epoch ~owner =
  let cell = epoch_cell owner in
  incr cell;
  !cell

let mint ~owner v =
  incr next_id;
  let cell = epoch_cell owner in
  { id = !next_id; owner; minted_epoch = !cell; cell; resource = Some v }

let stale c = c.minted_epoch < !(c.cell)

let deref c =
  if stale c then
    raise (Revoked (Printf.sprintf "%s#%d (stale epoch %d, current %d)"
                      c.owner c.id c.minted_epoch !(c.cell)))
  else
    match c.resource with
    | Some v -> v
    | None -> raise (Revoked (Printf.sprintf "%s#%d" c.owner c.id))

let deref_opt c = if stale c then None else c.resource

let revoke c = c.resource <- None

let is_valid c = (not (stale c)) && Option.is_some c.resource

let owner c = c.owner

let id c = c.id

let epoch c = c.minted_epoch

let equal a b = a.id = b.id

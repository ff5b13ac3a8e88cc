type entry = {
  value : Univ.t;
  minted_epoch : int;
}

type t = {
  table : entry Spin_dstruct.Idtable.t;
  mutable epoch : int;
}

let create () = { table = Spin_dstruct.Idtable.create (); epoch = 0 }

let epoch t = t.epoch

let externalize t tag v =
  Spin_dstruct.Idtable.insert t.table
    { value = Univ.pack tag v; minted_epoch = t.epoch }

let internalize t tag i =
  match Spin_dstruct.Idtable.lookup t.table i with
  | None -> None
  | Some e when e.minted_epoch < t.epoch ->
    (* Minted by a retired instance of the application: the index is
       dead, not dangling — indistinguishable from a released one. *)
    None
  | Some e -> Univ.unpack tag e.value

let release t i = Spin_dstruct.Idtable.remove t.table i

let advance_epoch t =
  t.epoch <- t.epoch + 1;
  t.epoch

let live t = Spin_dstruct.Idtable.length t.table

type state = Created | Runnable | Running | Blocked | Dead

type t = {
  id : int;
  name : string;
  owner : string;
  mutable priority : int;
  mutable state : state;
  mutable coro : Coro.t option;
  joiners : t Spin_dstruct.Dllist.t;
  mutable failure : exn option;
  mutable cap : t Spin_core.Capability.t option;
  me : t option;
  mutable qnode : t Spin_dstruct.Dllist.node option;
  mutable wnode : t Spin_dstruct.Dllist.node option;
  mutable affinity : int option;
  mutable last_cpu : int;
  mutable qcpu : int;
}

let max_priority = 31

let counter = ref 0

let create ~owner ?(priority = 16) ~name () =
  if priority < 0 || priority > max_priority then
    invalid_arg "Strand.create: priority out of range";
  incr counter;
  let rec t =
    { id = !counter; name; owner; priority; state = Created; coro = None;
      joiners = Spin_dstruct.Dllist.create (); failure = None; cap = None;
      me = Some t; qnode = None; wnode = None; affinity = None;
      last_cpu = 0; qcpu = 0 } in
  t.cap <- Some (Spin_core.Capability.mint ~owner t);
  t.qnode <- Some (Spin_dstruct.Dllist.node t);
  t

(* The run-queue node and the capability are set at creation; the wait
   node at the first wait, so a strand that never waits has none. *)
let run_node t = match t.qnode with Some n -> n | None -> assert false

let wait_node t =
  match t.wnode with
  | Some n -> n
  | None ->
    let n = Spin_dstruct.Dllist.node t in
    t.wnode <- Some n;
    n

let capability t =
  match t.cap with
  | Some cap -> cap
  | None -> assert false                  (* set at creation *)

let holds_capability cap t =
  Spin_core.Capability.is_valid cap
  && (Spin_core.Capability.deref cap).id = t.id

let state_to_string = function
  | Created -> "created"
  | Runnable -> "runnable"
  | Running -> "running"
  | Blocked -> "blocked"
  | Dead -> "dead"

let to_string t =
  Printf.sprintf "strand#%d(%s,%s,pri=%d,%s)"
    t.id t.name t.owner t.priority (state_to_string t.state)

type state = Created | Runnable | Running | Blocked | Dead

type timer = { event : Spin_machine.Sim.timer; wake : unit -> unit }

type t = {
  id : int;
  name : string;
  owner : string;
  mutable priority : int;
  mutable state : state;
  mutable coro : Coro.t option;
  mutable joiners : t Spin_dstruct.Dllist.t;
  mutable failure : exn option;
  mutable cap : t Spin_core.Capability.t option;
  mutable me : t option;
  mutable qnode : t Spin_dstruct.Dllist.node option;
  mutable wnode : t Spin_dstruct.Dllist.node option;
  mutable timer : timer option;
  mutable affinity : int option;
  mutable last_cpu : int;
  mutable qcpu : int;
  mutable wakeup : int;
}

let max_priority = 31

let counter = ref 0

(* Shared by every strand nobody has joined, so a strand is born
   without a list; [Kthread.join] replaces it before linking. *)
let no_joiners : t Spin_dstruct.Dllist.t = Spin_dstruct.Dllist.create ()

let record ~id ~owner ~priority ~name state =
  { id; name; owner; priority; state; coro = None;
    joiners = no_joiners; failure = None; cap = None;
    me = None; qnode = None; wnode = None; timer = None; affinity = None;
    last_cpu = 0; qcpu = 0; wakeup = 0 }

let create ~owner ?(priority = 16) ~name () =
  if priority < 0 || priority > max_priority then
    invalid_arg "Strand.create: priority out of range";
  incr counter;
  (* [me] is set after the record is built, not by a recursive
     definition, which would build the record twice. *)
  let t = record ~id:!counter ~owner ~priority ~name Created in
  t.me <- Some t;
  t.qnode <- Some (Spin_dstruct.Dllist.node t);
  t

(* Id 0, which no strand takes, and no node: it fills a ring's free
   slots and is never scheduled. *)
let placeholder () = record ~id:0 ~owner:"" ~priority:0 ~name:"placeholder" Dead

(* The run-queue node is set at creation; the wait node at the first
   wait, so a strand that never waits has none. *)
let run_node t = match t.qnode with Some n -> n | None -> assert false

let wait_node t =
  match t.wnode with
  | Some n -> n
  | None ->
    let n = Spin_dstruct.Dllist.node t in
    t.wnode <- Some n;
    n

(* Minted at the first request: few strands are ever asked for theirs.
   A dead strand's is minted revoked, as it would have been at death. *)
let capability t =
  match t.cap with
  | Some cap -> cap
  | None ->
    let cap = Spin_core.Capability.mint ~owner:t.owner t in
    if t.state = Dead then Spin_core.Capability.revoke cap;
    t.cap <- Some cap;
    cap

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

open Effect
open Effect.Deep

type reason = Yielded | Blocked

type outcome =
  | Suspended of reason
  | Done
  | Failed of exn

type _ Effect.t += Suspend : reason -> unit Effect.t

type state =
  | Created of (unit -> unit)
  | Parked of (unit, outcome) continuation
  | Running
  | Finished

type t = { mutable state : state }

let create f = { state = Created f }

let alive t =
  match t.state with
  | Created _ | Parked _ | Running -> true
  | Finished -> false

let yield_effect = Suspend Yielded and block_effect = Suspend Blocked

(* The park functions are built once per coroutine, at its first run,
   and the effect values once: a suspension allocates only the
   runtime's continuation and the [Parked] cell that holds it. *)
let handler t =
  let park outcome =
    Some (fun (k : (unit, outcome) continuation) -> t.state <- Parked k; outcome) in
  let park_yielded = park (Suspended Yielded) in
  let park_blocked = park (Suspended Blocked) in
  { retc = (fun () -> t.state <- Finished; Done);
    exnc = (fun e -> t.state <- Finished; Failed e);
    effc = (fun (type a) (eff : a Effect.t)
      : ((a, outcome) continuation -> outcome) option ->
      match eff with
      | Suspend Yielded -> park_yielded
      | Suspend Blocked -> park_blocked
      | _ -> None) }

let run t =
  match t.state with
  | Running -> invalid_arg "Coro.run: already running"
  | Finished -> invalid_arg "Coro.run: finished"
  | Created f ->
    t.state <- Running;
    match_with f () (handler t)
  | Parked k ->
    t.state <- Running;
    continue k ()

let suspend r = perform (if r = Yielded then yield_effect else block_effect)

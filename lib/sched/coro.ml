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

let handler t = {
  retc = (fun () -> t.state <- Finished; Done);
  exnc = (fun e -> t.state <- Finished; Failed e);
  effc = (fun (type a) (eff : a Effect.t) ->
    match eff with
    | Suspend reason ->
      Some (fun (k : (a, outcome) continuation) ->
        t.state <- Parked k;
        Suspended reason)
    | _ -> None);
}

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

let suspend reason = perform (Suspend reason)

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
  | Parked of { mutable k : (unit, outcome) continuation }
  | Running
  | Finished

(* [cell] is the coroutine's [Parked] cell once it has suspended
   ([Running] before): each later suspension refills it in place. *)
type t = { mutable state : state; mutable cell : state }

let create f = { state = Created f; cell = Running }

let alive t =
  match t.state with
  | Created _ | Parked _ | Running -> true
  | Finished -> false

(* The coroutine being run, set by [run] around each slice. It is
   per domain, as a coroutine's slice runs on one. *)
let running =
  Domain.DLS.new_key (fun () -> ref { state = Finished; cell = Finished })

let park k =
  let t = !(Domain.DLS.get running) in
  match t.cell with
  | Parked p -> p.k <- k; t.state <- t.cell
  | Created _ | Running | Finished ->
    let cell = Parked { k } in
    t.cell <- cell;
    t.state <- cell

let park_yielded =
  Some (fun (k : (unit, outcome) continuation) -> park k; Suspended Yielded)

let park_blocked =
  Some (fun (k : (unit, outcome) continuation) -> park k; Suspended Blocked)

(* One handler for every coroutine, built here once: it finds the
   coroutine in [running], so a suspension allocates only the
   runtime's continuation. *)
let handler =
  { retc = (fun () -> (!(Domain.DLS.get running)).state <- Finished; Done);
    exnc = (fun e -> (!(Domain.DLS.get running)).state <- Finished; Failed e);
    effc = (fun (type a) (eff : a Effect.t)
      : ((a, outcome) continuation -> outcome) option ->
      match eff with
      | Suspend Yielded -> park_yielded
      | Suspend Blocked -> park_blocked
      | _ -> None) }

let start t =
  match t.state with
  | Running -> invalid_arg "Coro.run: already running"
  | Finished -> invalid_arg "Coro.run: finished"
  | Created f ->
    t.state <- Running;
    match_with f () handler
  | Parked p ->
    t.state <- Running;
    continue p.k ()

(* A coroutine may run another: the outer one is restored as [running]
   however the inner slice ends. *)
let run t =
  let running = Domain.DLS.get running in
  let outer = !running in
  running := t;
  match start t with
  | outcome -> running := outer; outcome
  | exception e -> running := outer; raise e

let yield_effect = Suspend Yielded and block_effect = Suspend Blocked

let suspend r = perform (if r = Yielded then yield_effect else block_effect)

module Dispatcher = Spin_core.Dispatcher
module Kdomain = Spin_core.Kdomain
module Object_file = Spin_core.Object_file
module Capability = Spin_core.Capability
module Extern_ref = Spin_core.Extern_ref
module Symbol = Spin_core.Symbol
module Ty = Spin_core.Ty
module Univ = Spin_core.Univ
module Sched = Spin_sched.Sched
module Strand = Spin_sched.Strand
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Trace = Spin_machine.Trace

(* ------------------ the Checkpointable convention ----------------- *)

let checkpoint_tag : (unit -> Univ.t) Univ.tag =
  Univ.tag ~name:"Swap.Checkpoint" ()

let restore_tag : (Univ.t -> unit) Univ.tag =
  Univ.tag ~name:"Swap.Restore" ()

let externs_tag : Extern_ref.t Univ.tag =
  Univ.tag ~name:"Swap.Externs" ()

let checkpoint_sym =
  Symbol.make ~intf:"Swap" ~name:"checkpoint"
    (Ty.Proc ([], Ty.Opaque "Swap.State"))

let restore_sym =
  Symbol.make ~intf:"Swap" ~name:"restore"
    (Ty.Proc ([ Ty.Opaque "Swap.State" ], Ty.Unit))

let externs_sym =
  Symbol.make ~intf:"Swap" ~name:"externs"
    (Ty.Opaque "ExternRef.T")

let checkpoint_fn d =
  Option.bind (Kdomain.lookup d "Swap.checkpoint") (Univ.unpack checkpoint_tag)

let restore_fn d =
  Option.bind (Kdomain.lookup d "Swap.restore") (Univ.unpack restore_tag)

let externs_of d =
  Option.bind (Kdomain.lookup d "Swap.externs") (Univ.unpack externs_tag)

(* ------------------------- outcomes ------------------------------- *)

type outcome = {
  sw_domain : string;
  sw_from_version : int;
  sw_to_version : int;
  sw_gated_events : string list;
  sw_held_raises : int;
  sw_handlers_swept : int;
  sw_cap_epoch : int;
  sw_extern_epoch : int option;
  sw_checkpointed : bool;
  sw_pause_us : float;
}

type error =
  | Swap_in_progress of string
  | Link_failure of Kdomain.error
  | Export_gap of string list
  | Not_restorable of string
  | Checkpoint_failure of exn
  | Restore_failure of exn

let error_to_string = function
  | Swap_in_progress d -> Printf.sprintf "a swap of %s is already in progress" d
  | Link_failure e -> Kdomain.error_to_string e
  | Export_gap gaps ->
    "replacement breaks the old interface: " ^ String.concat "; " gaps
  | Not_restorable d ->
    Printf.sprintf
      "%s checkpoints state but its replacement exports no Swap.restore" d
  | Checkpoint_failure e -> "checkpoint raised: " ^ Printexc.to_string e
  | Restore_failure e -> "restore raised: " ^ Printexc.to_string e

type stats = {
  mutable swaps : int;
  mutable failed_swaps : int;
  mutable held_raises : int;
}

type t = {
  sched : Sched.t;
  disp : Dispatcher.t;
  clock : Clock.t;
  swapped_ev : (outcome, unit) Dispatcher.event;
  waiters : Strand.t Queue.t;
  mutable swapper : Strand.t option;   (* exempt from the gate *)
  mutable in_progress : string option;
  mutable window_held : int;           (* raises held in this window *)
  stats : stats;
}

(* The window's virtual-time cost model, charged while the gates are
   closed so the ["swap.pause"] histogram reflects what a request
   arriving mid-swap actually waits: registry walks per gate flip
   ([swap_gate]) and per evicted handler ([swap_sweep]), and the
   domain bring-up ([swap_bringup]: run init, fix up the dispatch
   tables). Checkpoint/restore closures charge their own cost. *)
let cost t = Clock.cost t.clock

let swapped_event t = t.swapped_ev

let create sched disp =
  let swapped_ev =
    Dispatcher.declare disp ~name:"Swap.DomainSwapped" ~owner:"Swap"
      (fun (_ : outcome) -> ()) in
  let t = {
    sched; disp; clock = Sched.clock sched;
    swapped_ev; waiters = Queue.create ();
    swapper = None; in_progress = None; window_held = 0;
    stats = { swaps = 0; failed_swaps = 0; held_raises = 0 };
  } in
  (* The gate's parking half: a strand raising into a gated event
     blocks here until the swap commits and drains the queue. The swap
     strand itself — and raises from outside any strand, which have
     nothing to park — pass through. *)
  Dispatcher.set_gate_wait disp
    (Some (fun () ->
       match Sched.current sched with
       | None -> false
       | Some s ->
         (match t.swapper with
          | Some sw when sw.Strand.id = s.Strand.id -> false
          | Some _ | None ->
            t.window_held <- t.window_held + 1;
            t.stats.held_raises <- t.stats.held_raises + 1;
            Queue.push s t.waiters;
            Sched.block_current sched;
            true)));
  t

let drain t =
  let rec pop () =
    match Queue.take_opt t.waiters with
    | None -> ()
    | Some s -> Sched.unblock t.sched s; pop () in
  pop ()

(* Reopen the gates and release everything the window captured; every
   exit path — commit or rollback — funnels through here so a failed
   swap can never leave the system gated. *)
let reopen t ~gated =
  Clock.charge t.clock ((cost t).Cost.swap_gate * List.length gated);
  Dispatcher.set_gate_by_name t.disp ~names:gated false;
  drain t;
  t.swapper <- None;
  t.in_progress <- None

(* A swap that stops short of its commit: counted, and its error
   returned. *)
let fail t e =
  t.stats.failed_swaps <- t.stats.failed_swaps + 1;
  Error e

let hot_swap t ~old_domain ~replacement
    ~prepare ?(activate = fun _ -> ()) () =
  let name = Kdomain.name old_domain in
  match t.in_progress with
  | Some d -> fail t (Swap_in_progress d)
  | None ->
    (* Phase 1 — prepare. Create and link the replacement before
       touching the old instance: a bad object file or a type conflict
       must leave the running extension exactly as it was. *)
    match prepare replacement with
    | Error e -> fail t (Link_failure e)
    | Ok new_domain ->
      match Kdomain.export_gaps new_domain
              ~exports:(Kdomain.exports old_domain) with
      | _ :: _ as gaps -> fail t (Export_gap gaps)
      | [] ->
        let ckpt = checkpoint_fn old_domain in
        let restore = restore_fn new_domain in
        (match ckpt, restore with
         | Some _, None -> fail t (Not_restorable name)
         | _ ->
           (* Phase 2 — close the window. Every event the old instance
              handles is gated: raises arriving from here on park at
              the event's edge and complete against the replacement. *)
           t.in_progress <- Some name;
           t.swapper <- Sched.current t.sched;
           t.window_held <- 0;
           let pause_start = Clock.now t.clock in
           let gated = Dispatcher.gate_installer t.disp ~installer:name in
           Clock.charge t.clock ((cost t).Cost.swap_gate * List.length gated);
           let tr = Trace.of_clock t.clock in
           if Trace.on tr then
             Trace.instant tr ~cat:"swap" ~name:"window_open"
               ~args:[ ("domain", name);
                       ("gated", string_of_int (List.length gated)) ] ();
           (* Quiesce: new raises now park at the gates, but a strand
              already inside an old handler must finish its dispatch
              before the checkpoint reads the state it may be mutating.
              Yield until the gated events report nothing in flight —
              bounded, so a handler wedged on I/O cannot hold the
              window open forever. The yields also let runnable
              strands reach the gates rather than race the sweep. *)
           (match Sched.current t.sched with
            | None -> ()
            | Some _ ->
              let rec settle n =
                Sched.yield t.sched;
                if n > 0
                && Dispatcher.in_flight_by_name t.disp ~names:gated > 0
                then settle (n - 1) in
              settle 8);
           (* Phase 3 — checkpoint the outgoing instance. Failure here
              rolls back: gates reopen onto the untouched old
              handlers. *)
           (match t.swapper with
            | Some s -> Sched.checkpoint_notify t.sched s
            | None -> ());
           let state =
             match ckpt with
             | None -> Ok None
             | Some f ->
               (try Ok (Some (f ())) with e -> Error (Checkpoint_failure e)) in
           (match state with
            | Error e -> reopen t ~gated; fail t e
            | Ok state ->
              (* Phase 4 — the point of no return: evict the old
                 handlers everywhere and bring the replacement up (its
                 initializer installs the new handlers). *)
              let swept =
                Dispatcher.uninstall_installer t.disp ~installer:name in
              Clock.charge t.clock ((cost t).Cost.swap_sweep * swept);
              Clock.charge t.clock (cost t).Cost.swap_bringup;
              Kdomain.initialize new_domain;
              let restored =
                match state, restore with
                | Some st, Some r ->
                  (try r st; Ok true with e -> Error (Restore_failure e))
                | _ -> Ok false in
              (* Phase 5 — revoke the old instance's references. Every
                 capability it minted and every index it externalized
                 dies in O(1); stale uses fault as Revoked, never
                 dangle into the retired code. *)
              let cap_epoch = Capability.advance_epoch ~owner:name in
              let extern_epoch =
                Option.map Extern_ref.advance_epoch (externs_of old_domain) in
              activate new_domain;
              (* Phase 6 — commit: reopen the gates and drain the
                 strands the window parked; they re-check the gate and
                 complete against the new handlers. *)
              let held = t.window_held in
              reopen t ~gated;
              (match Sched.current t.sched with
               | Some s -> Sched.resume_notify t.sched s
               | None -> ());
              let pause_cycles = Clock.now t.clock - pause_start in
              Trace.record_latency tr ~key:"swap.pause" pause_cycles;
              let outcome = {
                sw_domain = name;
                sw_from_version = Kdomain.version old_domain;
                sw_to_version = Kdomain.version new_domain;
                sw_gated_events = gated;
                sw_held_raises = held;
                sw_handlers_swept = swept;
                sw_cap_epoch = cap_epoch;
                sw_extern_epoch = extern_epoch;
                sw_checkpointed = (match restored with Ok b -> b | Error _ -> false);
                sw_pause_us = Cost.cycles_to_us (cost t) pause_cycles;
              } in
              if Trace.on tr then
                Trace.instant tr ~cat:"swap" ~name:"committed"
                  ~args:[ ("domain", name);
                          ("held", string_of_int held);
                          ("swept", string_of_int swept) ] ();
              (match restored with
               | Error e ->
                 (* The replacement is live but empty-handed: surface
                    the restore failure to the caller. *)
                 fail t e
               | Ok _ ->
                 t.stats.swaps <- t.stats.swaps + 1;
                 Dispatcher.raise_default t.swapped_ev () outcome;
                 Ok outcome)))

let stats t = { t.stats with swaps = t.stats.swaps }

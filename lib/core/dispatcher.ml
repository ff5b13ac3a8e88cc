module Trace = Spin_machine.Trace

type costs = {
  dispatch_fixed : int;
  guard_eval : int;
  handler_invoke : int;
  trusted_eval : int;
  trusted_invoke : int;
}

(* Section 5.5: 50 false guards add ~20 us to an Ethernet RTT (one
   dispatch per receiving host: ~0.4 us/guard); 50 invoked handlers add
   ~72 us (~1.44 us each beyond the guard). The trusted costs model a
   handler whose predicate was verified at install time and compiled:
   no guard-stack interpretation (a short straight-line compare), no
   overrun stamping around the invocation — the Rex/bpftime observation
   that moving verification offline leaves only the work itself. *)
let default_costs = {
  dispatch_fixed = 25;
  guard_eval = 53;
  handler_invoke = 138;
  trusted_eval = 12;
  trusted_invoke = 40;
}

type failure_policy =
  | Uninstall
  | Restart of { delay_us : float; backoff : float; max_restarts : int }
  | Quarantine of { window_us : float; max_faults : int }

type fault_kind =
  | Handler_exception of exn
  | Handler_overrun of { bound : int; spent : int }

type fault = {
  fault_event : string;
  fault_owner : string;
  fault_installer : string;
  fault_policy : failure_policy;
  fault_kind : fault_kind;
  fault_handler_id : int;
  fault_removed : bool;
  fault_reinstall : unit -> unit;
}

(* The one install surface: everything a handler can ask for, in a
   record, so facades stop re-plumbing optional arguments and the
   restart/hot-swap machinery reads policies from one place. *)
module Handler_spec = struct
  type 'a t = {
    guard : ('a -> bool) option;
    bound_cycles : int option;
    async : bool;
    index_key : int option;
    on_failure : failure_policy;
    verified : Ebc.program option;
    caps : Ebc.cap_slot array;
  }

  let default =
    { guard = None; bound_cycles = None; async = false; index_key = None;
      on_failure = Uninstall; verified = None; caps = [||] }

  let guarded g = { default with guard = Some g }
  let bounded b = { default with bound_cycles = Some b }
  let indexed key = { default with index_key = Some key }
  let verified ?(caps = [||]) prog =
    { default with verified = Some prog; caps }

  (* Type-erased per-handler view, exported through the registry so
     supervisors and swaps can enumerate what is installed without
     knowing event types. *)
  type info = {
    i_event : string;
    i_installer : string;
    i_handler_id : int;
    i_policy : failure_policy;
    i_indexed : bool;
    i_trusted : bool;
    i_async : bool;
    i_bound : int option;
    i_guards : int;
    i_active : bool;
  }
end

type t = {
  clock : Spin_machine.Clock.t;
  costs : costs;
  tracer : Trace.t;
  mutable spawn : ((unit -> unit) -> unit) option;
  deferred : (unit -> unit) Queue.t;
  mutable registry : registration list;   (* reverse declaration order *)
  mutable on_fault : (fault -> unit) option;
  mutable on_violation : (string -> unit) option;
  (* Provided by the scheduler layer: hold the calling strand while a
     gated event's handlers are being hot-swapped. Returns true after
     a wait (re-check the gate), false to pass through (the caller is
     exempt — e.g. the swap itself). *)
  mutable gate_wait : (unit -> bool) option;
  mutable next_handler_id : int;
  mutable s_verifier_rejections : int;
}

and registration = {
  reg_name : string;
  reg_owner : string;
  reg_installers : unit -> string list;
  reg_remove : string -> int;
  reg_audit : (string -> unit) -> unit;
  reg_set_gate : bool -> unit;
  reg_in_flight : unit -> int;
  reg_specs : unit -> Handler_spec.info list;
  reg_trusted : unit -> int;
}

type stats = {
  raises : int;
  fast_path : int;
  invocations : int;
  guard_rejections : int;
  aborted : int;
  handler_failures : int;
  stale_skips : int;
  gated_waits : int;
  trusted_fast : int;
}

type 'a decision =
  | Deny
  | Allow of {
      guard : ('a -> bool) option;
      bound_cycles : int option;
      force_async : bool;
    }

let allow = Allow { guard = None; bound_cycles = None; force_async = false }

type ('a, 'r) handler = {
  h_id : int;
  installer : string;
  fn : 'a -> 'r;
  mutable guards : ('a -> bool) list;
  bound : int option;
  async : bool;
  policy : failure_policy;
  h_indexed : bool;                      (* lives in an index slot *)
  (* The trusted-fast predicate: present iff the handler's bytecode
     passed the install-time verifier and no runtime check (closure
     guard, cycle bound) was requested alongside it. Dispatch runs it
     with zero per-event safety checks. *)
  mutable trusted : ('a -> bool) option;
  mutable active : bool;
  h_event : ('a, 'r) event;
}

and ('a, 'r) event = {
  e_name : string;
  e_owner : string;
  e_ty : Ty.t option;
  e_layout : 'a Ebc.layout option;
  disp : t;
  combine : 'r list -> 'r;
  auth : installer:string -> 'a decision;
  index : ('a -> int) option;
  indexed : (int, ('a, 'r) handler list ref) Hashtbl.t;
  allow_remove : requester:string -> bool;
  default_handler : ('a, 'r) handler;
  mutable primary_active : bool;
  mutable extra : ('a, 'r) handler list;  (* active, dispatch order *)
  (* Active handlers across all index slots. Slots deliberately
     retain inactive handlers (dispatch filters on [active], reviving
     is a flag flip), so [Hashtbl.length indexed] counts keys ever
     used, not live handlers — the plan must not use it. *)
  mutable n_indexed_active : int;
  mutable plan : ('a, 'r) plan;
  (* Dispatches currently running this event's plan; the invariant
     audit requires 0 at quiescence. *)
  mutable in_flight : int;
  (* Swap window: while gated, raises hold at the top of the dispatch
     (via the scheduler's [gate_wait]) until the replacement handlers
     are installed, then drain against the new domain. *)
  mutable gated : bool;
  mutable s_gated_waits : int;
  mutable s_raises : int;
  mutable s_fast : int;
  mutable s_invocations : int;
  mutable s_guard_rejections : int;
  mutable s_aborted : int;
  mutable s_failed : int;
  mutable s_stale_skips : int;
  mutable s_trusted : int;
}

(* How a raise dispatches, worked out whenever the handler set changes
   rather than on every raise. A General plan's list is immutable, so
   a dispatch keeps the snapshot it started with while handlers come
   and go underneath it. *)
and ('a, 'r) plan =
  | Direct of ('a, 'r) handler       (* sole unguarded synchronous handler *)
  | Trusted of ('a, 'r) handler * ('a -> bool)  (* sole verified handler *)
  | General of ('a, 'r) handler list (* primary (if active) and extras *)

exception No_handler of string

let create ?(costs = default_costs) clock =
  { clock; costs; tracer = Trace.of_clock clock; spawn = None;
    deferred = Queue.create (); registry = [];
    on_fault = None; on_violation = None; gate_wait = None;
    next_handler_id = 0; s_verifier_rejections = 0 }

let tracer t = t.tracer

let set_async_spawn t f = t.spawn <- Some f

let set_fault_handler t f = t.on_fault <- Some f

let set_violation_hook t f = t.on_violation <- f

let report_violation t msg =
  match t.on_violation with Some f -> f msg | None -> ()

let fresh_handler_id t =
  let id = t.next_handler_id in
  t.next_handler_id <- id + 1;
  id

let flush_deferred t =
  let n = Queue.length t.deferred in
  while not (Queue.is_empty t.deferred) do (Queue.pop t.deferred) () done;
  n

let last_result name results =
  match List.rev results with
  | r :: _ -> r
  | [] -> raise (No_handler name)

(* A live indexed handler forces the General plan: only its index
   lookup finds the handler. *)
let plan_of e =
  let handlers =
    if e.primary_active then e.default_handler :: e.extra else e.extra in
  match handlers with
  | [ { async = false; trusted = Some pred; _ } as h ]
    when e.n_indexed_active = 0 -> Trusted (h, pred)
  | [ { async = false; trusted = None; guards = []; bound = None; _ } as h ]
    when e.n_indexed_active = 0 -> Direct h
  | _ -> General handlers

(* Every change to an event's handler set ends here. It charges no
   virtual cycles: planning is the simulator's bookkeeping, not work
   the modelled kernel does per raise. *)
let replan e = e.plan <- plan_of e

let same_plan a b =
  match a, b with
  | Direct h, Direct h' | Trusted (h, _), Trusted (h', _) -> h == h'
  | General hs, General hs' -> List.equal ( == ) hs hs'
  | (Direct _ | Trusted _ | General _), _ -> false

(* Every site that retires a handler funnels through here so the
   active-indexed count stays exact and the plan never names a retired
   handler. An indexed handler stays in its slot. *)
let uninstall e h =
  if h.active then begin
    h.active <- false;
    if h.h_indexed then e.n_indexed_active <- e.n_indexed_active - 1
    else e.extra <- List.filter (fun x -> x != h) e.extra;
    replan e
  end

let link e h =
  if not h.active then begin
    h.active <- true;
    if h.h_indexed then e.n_indexed_active <- e.n_indexed_active + 1
    else e.extra <- e.extra @ [ h ];
    replan e
  end

let declare t ~name ~owner ?ty ?layout ?combine ?auth ?index
    ?allow_remove_primary default =
  let combine = match combine with Some f -> f | None -> last_result name in
  let auth = match auth with Some f -> f | None -> fun ~installer:_ -> allow in
  let allow_remove =
    match allow_remove_primary with
    | Some f -> f
    | None -> fun ~requester:_ -> false in
  let rec e =
    { e_name = name; e_owner = owner; e_ty = ty; e_layout = layout;
      disp = t; combine; auth;
      index; indexed = Hashtbl.create 8;
      allow_remove; primary_active = true; extra = [];
      default_handler =
        { h_id = fresh_handler_id t; installer = owner; fn = default;
          guards = []; bound = None; async = false; policy = Uninstall;
          h_indexed = false; trusted = None; active = true; h_event = e };
      n_indexed_active = 0; plan = General []; in_flight = 0;
      gated = false; s_gated_waits = 0;
      s_raises = 0; s_fast = 0; s_invocations = 0;
      s_guard_rejections = 0; s_aborted = 0; s_failed = 0;
      s_stale_skips = 0; s_trusted = 0 } in
  replan e;
  (* Every per-handler enumeration below reads from this one view, so
     hot-swap gating, supervisor sweeps, and audits agree on what is
     installed (linear and indexed alike). *)
  let spec_info h =
    { Handler_spec.i_event = name; i_installer = h.installer;
      i_handler_id = h.h_id; i_policy = h.policy; i_indexed = h.h_indexed;
      i_trusted = h.trusted <> None; i_async = h.async; i_bound = h.bound;
      i_guards = List.length h.guards; i_active = h.active } in
  let reg_specs () =
    List.map spec_info e.extra
    @ Hashtbl.fold (fun _ b acc -> List.map spec_info !b @ acc) e.indexed [] in
  let reg_installers () =
    let primary = if e.primary_active then [ owner ] else [] in
    primary
    @ List.filter_map
        (fun (i : Handler_spec.info) ->
          if i.Handler_spec.i_active then Some i.Handler_spec.i_installer
          else None)
        (reg_specs ()) in
  (* Per-installer eviction, type-erased: the supervisor quarantines a
     whole domain by sweeping every event through the registry. *)
  let reg_remove installer =
    let removed = ref 0 in
    let sweep h =
      if h.active && String.equal h.installer installer then begin
        uninstall e h; incr removed
      end in
    List.iter sweep e.extra;
    Hashtbl.iter (fun _ b -> List.iter sweep !b) e.indexed;
    !removed in
  (* Structural-coherence audit, type-erased so the checkers can sweep
     every event: stale inactive handlers in the linear list, a drifted
     active-indexed count, a cached plan that a fresh recompute
     disagrees with, or a dispatch recorded as still in flight all
     indicate handler-list mutation went around the safe paths. *)
  let reg_audit report =
    List.iter
      (fun h ->
        if not h.active then
          report
            (Printf.sprintf
               "%s: inactive handler from %s lingers in the handler list"
               name h.installer))
      e.extra;
    let live =
      Hashtbl.fold
        (fun _ b acc ->
          acc + List.length (List.filter (fun h -> h.active) !b))
        e.indexed 0 in
    if live <> e.n_indexed_active then
      report
        (Printf.sprintf "%s: indexed-active count %d disagrees with recount %d"
           name e.n_indexed_active live);
    if not (same_plan e.plan (plan_of e)) then
      report
        (Printf.sprintf "%s: cached dispatch plan disagrees with a recompute"
           name);
    if e.in_flight <> 0 then
      report
        (Printf.sprintf "%s: %d raise(s) still marked in flight at audit"
           name e.in_flight);
    (* A trusted handler's whole point is zero per-event checks: if one
       carries a guard stack or a runtime bound, some path installed or
       mutated it around the demotion logic. *)
    List.iter
      (fun (i : Handler_spec.info) ->
        if i.Handler_spec.i_trusted
           && (i.Handler_spec.i_guards > 0 || i.Handler_spec.i_bound <> None)
        then
          report
            (Printf.sprintf
               "%s: trusted handler from %s carries runtime checks"
               name i.Handler_spec.i_installer))
      (reg_specs ()) in
  t.registry <-
    { reg_name = name; reg_owner = owner; reg_installers; reg_remove;
      reg_audit; reg_set_gate = (fun v -> e.gated <- v);
      reg_in_flight = (fun () -> e.in_flight);
      reg_specs; reg_trusted = (fun () -> e.s_trusted) }
    :: t.registry;
  e

let event_name e = e.e_name

type install_error =
  | Denied
  | No_index
  | Rejected of Ebc.error

let install_error_to_string = function
  | Denied -> "denied by the primary module"
  | No_index -> "event has no index"
  | Rejected e -> "verifier rejected: " ^ Ebc.error_to_string e

let ok_exn ~site = function
  | Ok h -> h
  | Error err ->
    invalid_arg (Printf.sprintf "%s: %s" site (install_error_to_string err))

(* The one install path. Bytecode in the spec is verified here —
   against the event's published layout and the spec's capability
   slots — before anything is linked in; a rejection installs nothing.
   A program that verifies becomes the handler's trusted predicate iff
   it is the entire runtime check surface (no closure guard from the
   installer or the authorizer, no runtime cycle bound: a verified
   program's bound is discharged at install time through its step
   budget). Otherwise the compiled program is demoted to an ordinary
   guard — same semantics, guarded-path cost. *)
let install e ~installer ?(spec = Handler_spec.default) fn =
  let s : _ Handler_spec.t = spec in
  if s.Handler_spec.index_key <> None && e.index = None then Error No_index
  else
    match e.auth ~installer with
    | Deny -> Error Denied
    | Allow { guard = auth_guard; bound_cycles = auth_bound; force_async } ->
      let verified =
        match s.Handler_spec.verified with
        | None -> Ok None
        | Some prog ->
          (match e.e_layout with
           | None -> Error (Ebc.No_layout e.e_name)
           | Some lay ->
             let budget =
               match s.Handler_spec.bound_cycles with
               | Some b -> max 1 (b / Ebc.step_cycles)
               | None -> Ebc.default_budget in
             (match Ebc.verify ~layout:lay ~caps:s.Handler_spec.caps ~budget
                      prog with
              | Ok _cert ->
                (* The install-time price of zero per-event checks. *)
                Spin_machine.Clock.charge e.disp.clock (Ebc.verify_cycles prog);
                Ok (Some (Ebc.compile ~layout:lay ~caps:s.Handler_spec.caps prog))
              | Error err -> Error err)) in
      (match verified with
       | Error err ->
         e.disp.s_verifier_rejections <- e.disp.s_verifier_rejections + 1;
         if Trace.on e.disp.tracer then
           Trace.instant e.disp.tracer ~cat:"dispatcher" ~name:"verifier_reject"
             ~args:[ ("event", e.e_name); ("installer", installer);
                     ("error", Ebc.error_to_string err) ] ();
         Error (Rejected err)
       | Ok compiled ->
         let trusted, demoted =
           match compiled with
           | Some pred
             when s.Handler_spec.guard = None && auth_guard = None
                  && auth_bound = None ->
             (Some pred, [])
           | Some pred -> (None, [ pred ])
           | None -> (None, []) in
         let guards =
           Option.to_list auth_guard @ demoted
           @ Option.to_list s.Handler_spec.guard in
         let bound =
           if trusted <> None then None
           else
             match auth_bound, s.Handler_spec.bound_cycles with
             | None, b | b, None -> b
             | Some a, Some b -> Some (min a b) in
         let h =
           { h_id = fresh_handler_id e.disp; installer; fn; guards; bound;
             async = s.Handler_spec.async || force_async;
             policy = s.Handler_spec.on_failure;
             h_indexed = s.Handler_spec.index_key <> None;
             trusted; active = false; h_event = e } in
         Option.iter
           (fun key ->
             match Hashtbl.find_opt e.indexed key with
             | Some b -> b := !b @ [ h ]
             | None -> Hashtbl.replace e.indexed key (ref [ h ]))
           s.Handler_spec.index_key;
         link e h;
         Ok h)

(* Stacking a closure guard on a trusted handler forfeits the trusted
   path: the compiled predicate demotes to the front of the guard
   stack and dispatch reverts to the guarded (policed) path. *)
let add_guard h g =
  h.guards <- h.guards @ Option.to_list h.trusted @ [ g ];
  h.trusted <- None;
  replan h.h_event

let remove_primary e ~requester =
  if e.allow_remove ~requester then begin
    e.primary_active <- false;
    replan e;
    Ok ()
  end else Error `Denied

let reinstate_primary e =
  e.primary_active <- true;
  replan e

let guards_pass e h arg =
  List.for_all
    (fun g ->
      Spin_machine.Clock.charge e.disp.clock e.disp.costs.guard_eval;
      g arg
      || begin
        e.s_guard_rejections <- e.s_guard_rejections + 1;
        if Trace.on e.disp.tracer then
          Trace.instant e.disp.tracer ~cat:"dispatcher" ~name:"guard_reject"
            ~args:[ ("event", e.e_name); ("installer", h.installer) ] ();
        false
      end)
    h.guards

(* The thunk runs after the raise returns — on a freshly spawned strand
   or at the next [flush_deferred] — so the handler can be uninstalled
   (or its whole domain quarantined) in between. Re-check [active] at
   run time: dispatching to a dead handler would resurrect exactly the
   extension the supervisor evicted. *)
let run_async e h arg =
  let thunk () =
    if h.active then ignore (h.fn arg)
    else e.s_stale_skips <- e.s_stale_skips + 1 in
  match e.disp.spawn with
  | Some spawn -> spawn thunk
  | None -> Queue.add thunk e.disp.deferred

let report_fault e h kind ~removed =
  match e.disp.on_fault with
  | None -> ()
  | Some f ->
    f { fault_event = e.e_name; fault_owner = e.e_owner;
        fault_installer = h.installer; fault_policy = h.policy;
        fault_kind = kind; fault_handler_id = h.h_id;
        fault_removed = removed; fault_reinstall = (fun () -> link e h) }

(* A failing extension handler is isolated: the exception is caught,
   counted, and reported — "the failure of an extension is no more
   catastrophic than the failure of code executing in the runtime
   libraries" (paper, section 4.3). With no supervisor attached the
   faulting handler is uninstalled on the spot; with one attached, the
   handler's [on_failure] policy decides whether it stays installed
   (Quarantine counts faults against the domain's budget), comes back
   after a delay (Restart), or goes away (Uninstall). The primary
   implementation is trusted: its exceptions propagate to the raiser,
   as a direct procedure call's would. *)
let run_sync e h arg acc =
  let clock = e.disp.clock in
  (* Checker probe: every synchronous invocation funnels through here,
     so an inactive handler reaching this point means some dispatch
     path skipped the active filter — report it to the concurrency
     checkers rather than fail silently. *)
  if not h.active && h != e.default_handler then
    report_violation e.disp
      (Printf.sprintf "%s: invoking inactive handler from %s"
         e.e_name h.installer);
  e.s_invocations <- e.s_invocations + 1;
  let invoke () =
    if h == e.default_handler then Some (h.fn arg)
    else
      try Some (h.fn arg)
      with exn ->
        e.s_failed <- e.s_failed + 1;
        if Trace.on e.disp.tracer then
          Trace.instant e.disp.tracer ~cat:"dispatcher" ~name:"fault"
            ~args:[ ("event", e.e_name); ("installer", h.installer);
                    ("exn", Printexc.to_string exn) ] ();
        let keep_installed =
          e.disp.on_fault <> None
          && (match h.policy with Quarantine _ -> true | _ -> false) in
        if not keep_installed then uninstall e h;
        report_fault e h (Handler_exception exn) ~removed:(not keep_installed);
        None in
  match h.bound with
  | None ->
    (match invoke () with Some r -> r :: acc | None -> acc)
  | Some bound ->
    let result = ref None in
    let spent = Spin_machine.Clock.stamp clock (fun () -> result := invoke ()) in
    if spent > bound then begin
      (* Overran its quantum: the dispatcher aborts the handler and
         discards its result. The overrun is reported but the handler
         stays installed — repeat offenders are the supervisor's call. *)
      e.s_aborted <- e.s_aborted + 1;
      (* [invoke] already reported if the handler threw. *)
      if h != e.default_handler && !result <> None then
        report_fault e h (Handler_overrun { bound; spent }) ~removed:false;
      acc
    end else
      match !result with Some r -> r :: acc | None -> acc

(* One handler's turn in a General dispatch. A handler evicted
   mid-dispatch (a supervisor quarantine triggered by an earlier
   handler's fault) is skipped. A verified handler runs its compiled
   predicate in place of the guard stack and is invoked unpoliced. *)
let step e arg acc h =
  if not h.active then acc
  else
    let clock = e.disp.clock and costs = e.disp.costs in
    let admitted =
      match h.trusted with
      | Some pred -> Spin_machine.Clock.charge clock costs.trusted_eval; pred arg
      | None -> guards_pass e h arg in
    if not admitted then acc
    else begin
      let trusted = h.trusted <> None in
      if trusted then e.s_trusted <- e.s_trusted + 1;
      Spin_machine.Clock.charge clock
        (if trusted then costs.trusted_invoke else costs.handler_invoke);
      if Trace.on e.disp.tracer then
        Trace.instant e.disp.tracer ~cat:"dispatcher" ~name:"invoke"
          ~args:[ ("event", e.e_name); ("installer", h.installer);
                  (if trusted then ("path", "trusted")
                   else ("async", string_of_bool h.async)) ] ();
      if h.async then begin
        e.s_invocations <- e.s_invocations + 1;
        run_async e h arg;
        acc
      end else run_sync e h arg acc
    end

(* One match on the cached plan. Each route charges what the paper's
   dispatcher would: a procedure call for Direct; the compiled
   predicate and an unpoliced call for Trusted; the fixed dispatch
   cost, the index lookup, and per-handler guard and invoke costs for
   General. *)
let dispatch e arg =
  let clock = e.disp.clock and costs = e.disp.costs and tr = e.disp.tracer in
  match e.plan with
  | Direct h ->
    e.s_fast <- e.s_fast + 1;
    Spin_machine.Clock.charge clock
      (Spin_machine.Clock.cost clock).Spin_machine.Cost.cross_module_call;
    Trace.with_span tr ~cat:"dispatcher" ~name:e.e_name
      ~args:[ ("path", "fast") ] (fun () ->
        (* Only the trusted primary gets the raw call — its exceptions
           propagate to the raiser, as a direct procedure call's
           would. A sole extension handler still goes through
           [run_sync] so its faults are caught, counted, and
           reported. *)
        if h == e.default_handler then begin
          e.s_invocations <- e.s_invocations + 1;
          h.fn arg
        end else e.combine (run_sync e h arg []))
  | Trusted (h, pred) ->
    Spin_machine.Clock.charge clock costs.trusted_eval;
    if not (pred arg) then e.combine []
    else begin
      e.s_trusted <- e.s_trusted + 1;
      Spin_machine.Clock.charge clock costs.trusted_invoke;
      Trace.with_span tr ~cat:"dispatcher" ~name:e.e_name
        ~args:[ ("path", "trusted") ] (fun () ->
          e.combine (run_sync e h arg []))
    end
  | General handlers ->
    Spin_machine.Clock.charge clock costs.dispatch_fixed;
    Trace.with_span tr ~cat:"dispatcher" ~name:e.e_name
      ~args:[ ("path", "slow") ] (fun () ->
        (* Indexed handlers are found by hashing, not by walking
           guards: one lookup regardless of how many keys are
           registered, filtered before any handler runs. *)
        let indexed =
          match e.index with
          | None -> []
          | Some index ->
            Spin_machine.Clock.charge clock costs.guard_eval;
            (match Hashtbl.find_opt e.indexed (index arg) with
             | Some slot -> List.filter (fun h -> h.active) !slot
             | None -> []) in
        let step = step e arg in
        e.combine
          (List.rev (List.fold_left step (List.fold_left step [] handlers)
                       indexed)))

(* Hold at a closed gate until the swap that closed it drains us. A
   wait hook that answers false exempts the caller (the swap strand
   itself must dispatch through its own gate); with no hook installed
   — no scheduler to park on — the raise passes through. The plan is
   read only after the hold, so a held raise dispatches against the
   handlers the swap installed. *)
let gate_hold e =
  if e.gated then
    match e.disp.gate_wait with
    | None -> ()
    | Some wait ->
      e.s_gated_waits <- e.s_gated_waits + 1;
      if Trace.on e.disp.tracer then
        Trace.instant e.disp.tracer ~cat:"dispatcher" ~name:"gate_hold"
          ~args:[ ("event", e.e_name) ] ();
      let rec hold () = if e.gated && wait () then hold () in
      hold ()

let raise_event e arg =
  gate_hold e;
  e.s_raises <- e.s_raises + 1;
  (* [in_flight] records the dispatch for the invariant audit. *)
  e.in_flight <- e.in_flight + 1;
  match dispatch e arg with
  | r -> e.in_flight <- e.in_flight - 1; r
  | exception exn -> e.in_flight <- e.in_flight - 1; raise exn

let raise_default e fallback arg =
  match raise_event e arg with
  | r -> r
  | exception No_handler _ -> fallback

let indexed_active e = e.n_indexed_active

let handler_count e =
  (if e.primary_active then 1 else 0)
  + List.length e.extra + e.n_indexed_active

let stats e = {
  raises = e.s_raises;
  fast_path = e.s_fast;
  invocations = e.s_invocations;
  guard_rejections = e.s_guard_rejections;
  aborted = e.s_aborted;
  handler_failures = e.s_failed;
  stale_skips = e.s_stale_skips;
  gated_waits = e.s_gated_waits;
  trusted_fast = e.s_trusted;
}

(* -------------------- swap-window gating -------------------------- *)

let set_gate_wait t f = t.gate_wait <- f

let gate e = e.gated <- true

let ungate e = e.gated <- false

let is_gated e = e.gated

(* The supervisor-style registry sweep, for gates: close every event
   on which any of [installers] has an active handler, returning the
   names closed so the swap can reopen exactly those. *)
let gate_installers t ~installers =
  List.filter_map
    (fun r ->
      if List.exists (fun i -> List.mem i (r.reg_installers ())) installers
      then begin r.reg_set_gate true; Some r.reg_name end
      else None)
    t.registry

let set_gate_by_name t ~names v =
  List.iter
    (fun r -> if List.mem r.reg_name names then r.reg_set_gate v)
    t.registry

let in_flight_by_name t ~names =
  List.fold_left
    (fun acc r ->
      if List.mem r.reg_name names then acc + r.reg_in_flight () else acc)
    0 t.registry

let audit t report = List.iter (fun r -> r.reg_audit report) t.registry

let topology t =
  List.rev_map
    (fun r -> (r.reg_name, r.reg_owner, r.reg_installers ()))
    t.registry

let handler_id h = h.h_id

let uninstall_installer t ~installer =
  List.fold_left (fun acc r -> acc + r.reg_remove installer) 0 t.registry

(* ------------------ trusted-path observability -------------------- *)

let trusted_total t =
  List.fold_left (fun acc r -> acc + r.reg_trusted ()) 0 t.registry

let verifier_rejections t = t.s_verifier_rejections

let handler_specs t =
  List.concat_map (fun r -> r.reg_specs ()) (List.rev t.registry)

let installed_specs t ~installer =
  List.filter
    (fun (i : Handler_spec.info) ->
      String.equal i.Handler_spec.i_installer installer)
    (handler_specs t)

let gauges t =
  [ ("dispatch.trusted_handlers",
     fun () ->
       List.length
         (List.filter
            (fun (i : Handler_spec.info) ->
              i.Handler_spec.i_trusted && i.Handler_spec.i_active)
            (handler_specs t)));
    ("dispatch.trusted_fast", fun () -> trusted_total t);
    ("dispatch.verifier_rejections", fun () -> verifier_rejections t) ]

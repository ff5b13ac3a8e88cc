module Cost = Spin_machine.Cost
module Trace = Spin_machine.Trace

(* The one install surface: everything a handler can ask for, in a
   record, so facades stop re-plumbing optional arguments. *)
module Handler_spec = struct
  type 'a t = {
    guard : ('a -> bool) option;
    bound_cycles : int option;
    async : bool;
    index_key : int option;
    verified : Ebc.program option;
  }

  let default =
    { guard = None; bound_cycles = None; async = false; index_key = None;
      verified = None }

  let guarded g = { default with guard = Some g }
  let indexed key = { default with index_key = Some key }
  let verified prog = { default with verified = Some prog }

  (* Type-erased per-handler view, exported through the registry so
     the topology, audits and tests can enumerate what is installed
     without knowing event types. *)
  type info = {
    i_installer : string;
    i_trusted : bool;
    i_bound : int option;
    i_guards : int;
  }
end

type 'a decision =
  | Deny
  | Allow of {
      guard : ('a -> bool) option;
      bound_cycles : int option;
      force_async : bool;
    }

let allow = Allow { guard = None; bound_cycles = None; force_async = false }

type stats = {
  mutable raises : int;
  mutable fast_path : int;
  mutable invocations : int;
  mutable guard_rejections : int;
  mutable aborted : int;
  mutable handler_failures : int;
  mutable stale_skips : int;
  mutable gated_waits : int;
  mutable trusted_fast : int;
}

type t = {
  clock : Spin_machine.Clock.t;
  tracer : Trace.t;
  mutable spawn : (unit -> unit) -> unit;
  mutable registry : registration list;   (* reverse declaration order *)
  mutable on_violation : (string -> unit) option;
  (* Provided by the scheduler layer: hold the calling strand while a
     gated event's handlers are being hot-swapped. Returns true after
     a wait (re-check the gate), false to pass through (the caller is
     exempt — e.g. the swap itself). *)
  mutable gate_wait : (unit -> bool) option;
  mutable s_verifier_rejections : int;
}

(* One declared event, its type hidden, so hot-swap gating, sweeps and
   audits can walk every event of the dispatcher. *)
and registration = Reg : ('a, 'r) event -> registration

and ('a, 'r) handler = {
  installer : string;
  fn : 'a -> 'r;
  mutable guards : ('a -> bool) list;
  bound : int option;
  async : bool;
  h_slot : ('a, 'r) slot option;         (* the index slot it lives in *)
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
  e_layout : 'a Ebc.layout option;
  disp : t;
  combine : 'r -> 'r -> 'r;
  auth : installer:string -> 'a decision;
  index : ('a -> int) option;
  indexed : (int, ('a, 'r) slot) Hashtbl.t;
  allow_remove : requester:string -> bool;
  default_handler : ('a, 'r) handler;
  mutable primary_active : bool;
  mutable extra : ('a, 'r) handler list;  (* active, dispatch order *)
  (* Active handlers across all index slots. Slots are never removed,
     so [Hashtbl.length indexed] counts keys ever used, not live
     handlers — the plan must not use it. *)
  mutable n_indexed_active : int;
  mutable plan : ('a, 'r) plan;
  (* Dispatches currently running this event's plan; the invariant
     audit requires 0 at quiescence. *)
  mutable in_flight : int;
  (* Swap window: while gated, raises hold at the top of the dispatch
     (via the scheduler's [gate_wait]) until the replacement handlers
     are installed, then drain against the new domain. *)
  mutable gated : bool;
  stats : stats;
}

(* How a raise dispatches, worked out whenever the handler set changes
   rather than on every raise. A General plan's list is immutable, so
   a dispatch keeps the snapshot it started with while handlers come
   and go underneath it. *)
and ('a, 'r) plan =
  | Direct of ('a, 'r) handler       (* sole unguarded synchronous handler *)
  | Trusted of ('a, 'r) handler * ('a -> bool)  (* sole verified handler *)
  | General of ('a, 'r) handler list (* primary (if active) and extras *)

(* One index key's active handlers, in install order. Every link and
   uninstall rebuilds [live], as [replan] rebuilds the plan, so a raise
   keeps the list it read: a handler installed mid-raise waits for the
   next. *)
and ('a, 'r) slot = { mutable live : ('a, 'r) handler list }

exception No_handler of string

(* Raised, without a backtrace, where a handler's turn or a whole
   dispatch yields no result. Constant, so raising it allocates
   nothing; it never leaves this module: [raise_event] and
   [raise_default] turn it into their answer for "no result" at the
   boundary of the raise that produced it, so a nested raise's empty
   answer never reads as its raiser's. *)
exception No_result

(* The spawn hook until a scheduler installs its own. *)
let no_scheduler _ =
  invalid_arg
    "Dispatcher: an asynchronous handler needs a scheduler \
     (Sched.create installs the spawn hook)"

let create clock =
  { clock; tracer = Trace.of_clock clock; spawn = no_scheduler; registry = [];
    on_violation = None; gate_wait = None; s_verifier_rejections = 0 }

let tracer t = t.tracer

let cost e = Spin_machine.Clock.cost e.disp.clock

let set_async_spawn t f = t.spawn <- f

let set_violation_hook t f = t.on_violation <- f

let report_violation t msg =
  match t.on_violation with Some f -> f msg | None -> ()

let keep_last _ r = r

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

(* [hs] without [h], copying only the cells before it. *)
let rec without h = function
  | [] -> []
  | x :: rest -> if x == h then rest else x :: without h rest

(* Every site that retires a handler funnels through here so the
   active-indexed count stays exact and the plan never names a retired
   handler. *)
let uninstall e h =
  if h.active then begin
    h.active <- false;
    (match h.h_slot with
     | Some b ->
       e.n_indexed_active <- e.n_indexed_active - 1;
       b.live <- without h b.live
     | None -> e.extra <- without h e.extra);
    replan e
  end

let link e h =
  h.active <- true;
  (match h.h_slot with
   | Some b ->
     e.n_indexed_active <- e.n_indexed_active + 1;
     b.live <- b.live @ [ h ]
   | None -> e.extra <- e.extra @ [ h ]);
  replan e

(* Every per-handler enumeration below reads from this one view, so
   hot-swap gating, sweeps and audits agree on what is installed
   (linear and indexed alike). *)
let spec_info h =
  { Handler_spec.i_installer = h.installer;
    i_trusted = h.trusted <> None; i_bound = h.bound;
    i_guards = List.length h.guards }

let specs e =
  List.map spec_info e.extra
  @ Hashtbl.fold (fun _ b acc -> List.map spec_info b.live @ acc)
      e.indexed []

(* A hot swap's registry walks, gating then evicting a domain, allocate
   only the names they return and what an eviction keeps; an index table
   is folded, with a closure, only while it holds live handlers.
   [installed_by] counts [installer]'s non-primary handlers on [e]. *)
let rec sweep ~evict e installer n = function
  | [] -> n
  | h :: rest ->
    let hit = h.active && String.equal h.installer installer in
    if hit && evict then uninstall e h;
    sweep ~evict e installer (if hit then n + 1 else n) rest

let installed_by ~evict e installer =
  let n = sweep ~evict e installer 0 e.extra in
  if e.n_indexed_active = 0 then n
  else Hashtbl.fold (fun _ b n -> sweep ~evict e installer n b.live) e.indexed n

let has_installer e installer =
  (e.primary_active && String.equal e.default_handler.installer installer)
  || installed_by ~evict:false e installer > 0

(* Structural-coherence audit, so the checkers can sweep every event:
   stale inactive handlers in a handler list, a drifted active-indexed
   count, a cached plan that a fresh recompute disagrees with, or a
   dispatch recorded as still in flight all indicate handler-list
   mutation went around the safe paths. *)
let audit_event e report =
  let name = e.e_name in
  let lingering h =
    if not h.active then
      report
        (Printf.sprintf
           "%s: inactive handler from %s lingers in the handler list"
           name h.installer) in
  List.iter lingering e.extra;
  Hashtbl.iter (fun _ b -> List.iter lingering b.live) e.indexed;
  let live =
    Hashtbl.fold (fun _ b acc -> acc + List.length b.live) e.indexed 0 in
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
    (specs e)

let declare t ~name ~owner ?layout ?combine ?auth ?index
    ?allow_remove_primary default =
  let combine = match combine with Some f -> f | None -> keep_last in
  let auth = match auth with Some f -> f | None -> fun ~installer:_ -> allow in
  let allow_remove =
    match allow_remove_primary with
    | Some f -> f
    | None -> fun ~requester:_ -> false in
  let rec e =
    { e_name = name; e_layout = layout;
      disp = t; combine; auth;
      index; indexed = Hashtbl.create 8;
      allow_remove; primary_active = true; extra = [];
      default_handler =
        { installer = owner; fn = default; guards = []; bound = None;
          async = false; h_slot = None; trusted = None; active = true;
          h_event = e };
      n_indexed_active = 0; plan = General []; in_flight = 0;
      gated = false;
      stats =
        { raises = 0; fast_path = 0; invocations = 0; guard_rejections = 0;
          aborted = 0; handler_failures = 0; stale_skips = 0;
          gated_waits = 0; trusted_fast = 0 } } in
  replan e;
  t.registry <- Reg e :: t.registry;
  e

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
               | Some b -> max 1 (b / (cost e).Cost.ebc_step)
               | None -> Ebc.default_budget in
             (match Ebc.verify ~layout:lay ~budget
                      prog with
              | Ok v ->
                (* The install-time price of zero per-event checks. *)
                Spin_machine.Clock.charge e.disp.clock
                  (Ebc.verify_cycles (cost e) prog);
                Ok (Some (Ebc.compile v))
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
         let slot =
           Option.map
             (fun key ->
               match Hashtbl.find_opt e.indexed key with
               | Some b -> b
               | None ->
                 let b = { live = [] } in
                 Hashtbl.replace e.indexed key b; b)
             s.Handler_spec.index_key in
         let h =
           { installer; fn; guards; bound;
             async = s.Handler_spec.async || force_async; h_slot = slot;
             trusted; active = false; h_event = e } in
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

(* A top-level loop, so a raise builds no closure. *)
let rec guards_pass e h arg = function
  | [] -> true
  | g :: rest ->
    Spin_machine.Clock.charge e.disp.clock (cost e).Cost.guard_eval;
    if g arg then guards_pass e h arg rest
    else begin
      e.stats.guard_rejections <- e.stats.guard_rejections + 1;
      if Trace.on e.disp.tracer then
        Trace.instant e.disp.tracer ~cat:"dispatcher" ~name:"guard_reject"
          ~args:[ ("event", e.e_name); ("installer", h.installer) ] ();
      false
    end

(* A failing extension handler is isolated: the exception is caught,
   counted, traced, and the handler uninstalled on the spot — "the
   failure of an extension is no more catastrophic than the failure of
   code executing in the runtime libraries" (paper, section 4.3). The
   primary implementation is trusted: its exceptions propagate to the
   raiser, as a direct procedure call's would. [invoke] returns the
   handler's result, and raises [No_result] for a handler that
   faulted. *)
let invoke e h arg =
  if h == e.default_handler then h.fn arg
  else
    match h.fn arg with
    | r -> r
    | exception exn ->
      e.stats.handler_failures <- e.stats.handler_failures + 1;
      if Trace.on e.disp.tracer then
        Trace.instant e.disp.tracer ~cat:"dispatcher" ~name:"fault"
          ~args:[ ("event", e.e_name); ("installer", h.installer);
                  ("exn", Printexc.to_string exn) ] ();
      uninstall e h;
      raise_notrace No_result

(* The thunk runs after the raise returns, on a freshly spawned strand,
   so the handler can be uninstalled (or its whole domain swept by a
   hot swap) in between. Re-check
   [active] at run time: dispatching to a dead handler would resurrect
   exactly the extension that was evicted. The body runs through
   [invoke], so a fault is contained as a synchronous handler's is. *)
let run_async e h arg =
  let thunk () =
    if h.active then
      (match invoke e h arg with _ -> () | exception No_result -> ())
    else e.stats.stale_skips <- e.stats.stale_skips + 1 in
  e.disp.spawn thunk

(* Overran its quantum: the dispatcher aborts the handler and discards
   its result, and the handler stays installed. One that also faulted
   counts as aborted too. *)
let overran e ~bound ~before =
  Spin_machine.Clock.now e.disp.clock - before > bound
  && begin e.stats.aborted <- e.stats.aborted + 1; true end

let run_sync e h arg =
  (* Checker probe: every synchronous invocation funnels through here,
     so an inactive handler reaching this point means some dispatch
     path skipped the active filter — report it to the concurrency
     checkers rather than fail silently. *)
  if not h.active && h != e.default_handler then
    report_violation e.disp
      (Printf.sprintf "%s: invoking inactive handler from %s"
         e.e_name h.installer);
  e.stats.invocations <- e.stats.invocations + 1;
  match h.bound with
  | None -> invoke e h arg
  | Some bound ->
    let before = Spin_machine.Clock.now e.disp.clock in
    (match invoke e h arg with
     | r -> if overran e ~bound ~before then raise_notrace No_result else r
     | exception No_result ->
       ignore (overran e ~bound ~before);
       raise_notrace No_result)

(* One handler's turn in a General dispatch: its result, or [No_result]
   when it has none to give. A handler evicted mid-dispatch (by an
   earlier handler that uninstalled it) is skipped. A verified handler
   runs its compiled predicate in place of the guard stack and is
   invoked unpoliced. *)
let step e arg h =
  if not h.active then raise_notrace No_result;
  let clock = e.disp.clock and c = cost e in
  let admitted =
    match h.trusted with
    | Some pred -> Spin_machine.Clock.charge clock c.Cost.trusted_eval; pred arg
    | None -> guards_pass e h arg h.guards in
  if not admitted then raise_notrace No_result;
  let trusted = h.trusted <> None in
  if trusted then e.stats.trusted_fast <- e.stats.trusted_fast + 1;
  Spin_machine.Clock.charge clock
    (if trusted then c.Cost.trusted_invoke else c.Cost.handler_invoke);
  if Trace.on e.disp.tracer then
    Trace.instant e.disp.tracer ~cat:"dispatcher" ~name:"invoke"
      ~args:[ ("event", e.e_name); ("installer", h.installer);
              (if trusted then ("path", "trusted")
               else ("async", string_of_bool h.async)) ] ();
  if h.async then begin
    e.stats.invocations <- e.stats.invocations + 1;
    run_async e h arg;
    raise_notrace No_result
  end else run_sync e h arg

(* The results of a General dispatch, combined in dispatch order: the
   linear handlers [hs] (primary first), then the [indexed] ones. The
   first result seeds the fold ([first]); every later one is folded
   into it ([fold]). Top-level loops over the plan's own lists, so a
   raise builds no closure, result cell or reversed copy. *)
let rec fold e arg acc hs indexed =
  match hs with
  | [] -> (match indexed with [] -> acc | _ -> fold e arg acc indexed [])
  | h :: rest ->
    let acc =
      match step e arg h with
      | r -> e.combine acc r
      | exception No_result -> acc in
    fold e arg acc rest indexed

let rec first e arg hs indexed =
  match hs with
  | [] ->
    (match indexed with
     | [] -> raise_notrace No_result
     | _ -> first e arg indexed [])
  | h :: rest ->
    (match step e arg h with
     | r -> fold e arg r rest indexed
     | exception No_result -> first e arg rest indexed)

(* One match on the cached plan. Each route charges what the paper's
   dispatcher would: a procedure call for Direct; the compiled
   predicate and an unpoliced call for Trusted; the fixed dispatch
   cost, the index lookup, and per-handler guard and invoke costs for
   General. *)
let dispatch e arg =
  let clock = e.disp.clock and tr = e.disp.tracer in
  match e.plan with
  | Direct h ->
    e.stats.fast_path <- e.stats.fast_path + 1;
    Spin_machine.Clock.charge clock (cost e).Cost.cross_module_call;
    (* The fast path builds no closure: the span is opened and closed
       around a plain match, a null token when tracing is off. *)
    let sp =
      Trace.begin_span tr ~cat:"dispatcher" ~name:e.e_name
        ~args:[ ("path", "fast") ] () in
    (* Only the trusted primary gets the raw call — its exceptions
       propagate to the raiser, as a direct procedure call's would. A
       sole extension handler still goes through [run_sync] so its
       faults are caught, counted, and reported. *)
    (match
       if h == e.default_handler then begin
         e.stats.invocations <- e.stats.invocations + 1;
         h.fn arg
       end else run_sync e h arg
     with
     | r -> Trace.end_span tr sp; r
     | exception exn -> Trace.end_span tr sp; raise exn)
  | Trusted (h, pred) ->
    Spin_machine.Clock.charge clock (cost e).Cost.trusted_eval;
    if not (pred arg) then raise_notrace No_result
    else begin
      e.stats.trusted_fast <- e.stats.trusted_fast + 1;
      Spin_machine.Clock.charge clock (cost e).Cost.trusted_invoke;
      let sp =
        Trace.begin_span tr ~cat:"dispatcher" ~name:e.e_name
          ~args:[ ("path", "trusted") ] () in
      match run_sync e h arg with
      | r -> Trace.end_span tr sp; r
      | exception exn -> Trace.end_span tr sp; raise exn
    end
  | General handlers ->
    Spin_machine.Clock.charge clock (cost e).Cost.dispatch_fixed;
    let sp =
      Trace.begin_span tr ~cat:"dispatcher" ~name:e.e_name
        ~args:[ ("path", "slow") ] () in
    (match
       (* Indexed handlers are found by hashing, not by walking
          guards: one lookup regardless of how many keys are
          registered, its live list read before any handler runs. *)
       let indexed =
         match e.index with
         | None -> []
         | Some index ->
           Spin_machine.Clock.charge clock (cost e).Cost.guard_eval;
           let key = index arg in
           (match Hashtbl.find e.indexed key with
            | slot -> slot.live
            | exception Not_found -> []) in
       first e arg handlers indexed
     with
     | r -> Trace.end_span tr sp; r
     | exception exn -> Trace.end_span tr sp; raise exn)

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
      e.stats.gated_waits <- e.stats.gated_waits + 1;
      if Trace.on e.disp.tracer then
        Trace.instant e.disp.tracer ~cat:"dispatcher" ~name:"gate_hold"
          ~args:[ ("event", e.e_name) ] ();
      let rec hold () = if e.gated && wait () then hold () in
      hold ()

(* The raise itself; [No_result] when no handler produced a result. *)
let run e arg =
  gate_hold e;
  e.stats.raises <- e.stats.raises + 1;
  (* [in_flight] records the dispatch for the invariant audit. *)
  e.in_flight <- e.in_flight + 1;
  match dispatch e arg with
  | r -> e.in_flight <- e.in_flight - 1; r
  | exception exn -> e.in_flight <- e.in_flight - 1; raise exn

let raise_event e arg =
  match run e arg with
  | r -> r
  | exception No_result -> raise (No_handler e.e_name)

(* Only this raise's own [No_result] selects the fallback: a
   [No_handler] from a nested raise inside a handler propagates. *)
let raise_default e fallback arg =
  match run e arg with
  | r -> r
  | exception No_result -> fallback

let indexed_active e = e.n_indexed_active

let handler_count e =
  (if e.primary_active then 1 else 0)
  + List.length e.extra + e.n_indexed_active

let stats e = { e.stats with raises = e.stats.raises }

(* -------------------- swap-window gating -------------------------- *)

let set_gate_wait t f = t.gate_wait <- f

let is_gated e = e.gated

(* The registry sweep, for gates: close every event on which
   [installer] has an active handler, returning the names closed so
   the swap can reopen exactly those. *)
let rec gate_in installer = function
  | [] -> []
  | Reg e :: rest when has_installer e installer ->
    e.gated <- true;
    e.e_name :: gate_in installer rest
  | _ :: rest -> gate_in installer rest

let gate_installer t ~installer = gate_in installer t.registry

let set_gate_by_name t ~names v =
  List.iter
    (fun (Reg e) -> if List.mem e.e_name names then e.gated <- v)
    t.registry

let in_flight_by_name t ~names =
  List.fold_left
    (fun acc (Reg e) ->
      if List.mem e.e_name names then acc + e.in_flight else acc)
    0 t.registry

let audit t report = List.iter (fun (Reg e) -> audit_event e report) t.registry

let topology t =
  List.rev_map
    (fun (Reg e) ->
      (e.e_name, e.default_handler.installer,
       (if e.primary_active then [ e.default_handler.installer ] else [])
       @ List.map (fun i -> i.Handler_spec.i_installer) (specs e)))
    t.registry

let rec uninstall_in installer n = function
  | [] -> n
  | Reg e :: rest ->
    uninstall_in installer (n + installed_by ~evict:true e installer) rest

let uninstall_installer t ~installer = uninstall_in installer 0 t.registry

(* ------------------ trusted-path observability -------------------- *)

let trusted_total t =
  List.fold_left (fun acc (Reg e) -> acc + e.stats.trusted_fast) 0 t.registry

let verifier_rejections t = t.s_verifier_rejections

let installed_specs t ~installer =
  List.concat_map
    (fun (Reg e) ->
      List.filter
        (fun (i : Handler_spec.info) ->
          String.equal i.Handler_spec.i_installer installer)
        (specs e))
    (List.rev t.registry)

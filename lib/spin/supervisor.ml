module Dispatcher = Spin_core.Dispatcher
module Sim = Spin_machine.Sim
module Clock = Spin_machine.Clock
module Trace = Spin_machine.Trace

type quarantine = { q_domain : string }

type restart = { r_attempt : int (* 1 = first restart *) }

type budget = { window_us : float; max_faults : int }

type domain_state = {
  d_name : string;
  mutable d_installers : string list;   (* every installer attributed *)
  mutable d_budget : budget option;
  mutable d_fault_log : (float * string) list;   (* (at_us, event), newest first *)
  mutable d_log_cap : int;              (* raised to cover large budgets *)
  mutable d_faults : int;
  mutable d_pending : Sim.handle list;  (* scheduled restarts *)
  mutable d_quarantined : bool;
  mutable d_evicted : int;
}

type stats = {
  s_faults : int;
  s_restarts : int;
  s_gave_up : int;
  s_backoff_capped : int;
  s_backoff_resets : int;
  s_revoked : int;
}

type t = {
  sim : Sim.t;
  disp : Dispatcher.t;
  domains : (string, domain_state) Hashtbl.t;
  owners : (string, string) Hashtbl.t;           (* installer -> domain *)
  restarts : (int, int) Hashtbl.t;               (* handler id -> count *)
  fault_times : (int, float) Hashtbl.t;          (* handler id -> last fault *)
  quarantined_ev : (quarantine, unit) Dispatcher.event;
  restarted_ev : (restart, unit) Dispatcher.event;
  mutable unlink : string -> unit;
  mutable m_faults : int;
  mutable m_restarts : int;
  mutable m_gave_up : int;
  mutable m_backoff_capped : int;
  mutable m_backoff_resets : int;
  mutable m_revoked : int;
}

let fault_log_cap = 256

(* Restart backoff never waits longer than one simulated second: a
   long fault burst would otherwise push the handler out for good. *)
let max_restart_delay_us = 1_000_000.0

(* A handler fault-free this long (ten simulated seconds) has its
   restart-attempt count reset, so an old burst does not tax an
   unrelated new fault. *)
let healthy_grace_us = 10_000_000.0

(* Budgets only need [max_faults] retained timestamps to trip, so the
   per-domain log cap is raised to the largest [max_faults] any budget
   or Quarantine policy on that domain asks for — otherwise a budget
   beyond [fault_log_cap] could never trip (the log would shed entries
   before the count got there). Saturated to keep the log bounded
   against absurd budgets (e.g. [max_int]). *)
let log_cap_limit = 1_000_000

let raise_log_cap d n =
  let n = min n log_cap_limit in
  if n > d.d_log_cap then d.d_log_cap <- n

let now_us t = Clock.now_us (Sim.clock t.sim)

let tracer t = Trace.of_clock (Sim.clock t.sim)

let quarantined_event t = t.quarantined_ev

let restarted_event t = t.restarted_ev

let set_unlink t f = t.unlink <- f

let domain_of t installer =
  match Hashtbl.find_opt t.owners installer with
  | Some d -> d
  | None -> installer

let state t name =
  match Hashtbl.find_opt t.domains name with
  | Some d -> d
  | None ->
    let d = { d_name = name; d_installers = []; d_budget = None;
              d_fault_log = []; d_log_cap = fault_log_cap; d_faults = 0;
              d_pending = []; d_quarantined = false;
              d_evicted = 0 } in
    Hashtbl.replace t.domains name d;
    d

let attribute d installer =
  if not (List.mem installer d.d_installers) then
    d.d_installers <- d.d_installers @ [ installer ]

let register_domain t ~name ?(installers = []) ?budget () =
  let d = state t name in
  List.iter (fun i ->
    Hashtbl.replace t.owners i name;
    attribute d i) installers;
  (match budget with
   | Some b ->
     d.d_budget <- Some b;
     raise_log_cap d b.max_faults
   | None -> ())

let recent_faults d ~window_us now =
  List.length
    (List.filter (fun (at, _) -> now -. at <= window_us) d.d_fault_log)

(* Quarantine: atomically evict every handler the domain installed, on
   every event, cancel its pending restarts, unlink it from the public
   namespace, and announce the fact as an event so peers can degrade
   gracefully. *)
let quarantine t d =
  if not d.d_quarantined then begin
    d.d_quarantined <- true;
    List.iter (fun h -> Sim.cancel t.sim h) d.d_pending;
    d.d_pending <- [];
    let installers =
      if List.mem d.d_name d.d_installers then d.d_installers
      else d.d_name :: d.d_installers in
    d.d_evicted <-
      List.fold_left
        (fun acc i -> acc + Dispatcher.uninstall_installer t.disp ~installer:i)
        0 installers;
    let tr = tracer t in
    if Trace.on tr then
      Trace.instant tr ~cat:"supervisor" ~name:"quarantine"
        ~args:[ ("domain", d.d_name);
                ("faults", string_of_int d.d_faults);
                ("evicted", string_of_int d.d_evicted) ] ();
    t.unlink d.d_name;
    Dispatcher.raise_event t.quarantined_ev { q_domain = d.d_name }
  end

let schedule_restart t d (f : Dispatcher.fault) ~delay_us ~attempt =
  let handle = ref None in
  let h = Sim.after_us t.sim delay_us (fun () ->
    (match !handle with
     | Some h -> d.d_pending <- List.filter (fun x -> x != h) d.d_pending
     | None -> ());
    if not d.d_quarantined then begin
      f.Dispatcher.fault_reinstall ();
      Hashtbl.replace t.restarts f.Dispatcher.fault_handler_id attempt;
      t.m_restarts <- t.m_restarts + 1;
      let tr = tracer t in
      if Trace.on tr then
        Trace.instant tr ~cat:"supervisor" ~name:"restart"
          ~args:[ ("domain", d.d_name);
                  ("installer", f.Dispatcher.fault_installer);
                  ("event", f.Dispatcher.fault_event);
                  ("attempt", string_of_int attempt) ] ();
      Dispatcher.raise_event t.restarted_ev { r_attempt = attempt }
    end) in
  handle := Some h;
  d.d_pending <- h :: d.d_pending

let truncate n l =
  if List.length l <= n then l
  else List.filteri (fun i _ -> i < n) l

let on_fault t (f : Dispatcher.fault) =
  let d = state t (domain_of t f.Dispatcher.fault_installer) in
  attribute d f.Dispatcher.fault_installer;
  let now = now_us t in
  (match f.Dispatcher.fault_policy with
   | Dispatcher.Quarantine { max_faults; _ } -> raise_log_cap d max_faults
   | Dispatcher.Uninstall | Dispatcher.Restart _ -> ());
  d.d_fault_log <-
    truncate d.d_log_cap ((now, f.Dispatcher.fault_event) :: d.d_fault_log);
  d.d_faults <- d.d_faults + 1;
  t.m_faults <- t.m_faults + 1;
  (match f.Dispatcher.fault_kind with
   | Dispatcher.Handler_exception (Spin_core.Capability.Revoked _) ->
     (* A handler touched a capability retired by revocation or a
        hot-swap epoch advance. Contained like any fault, but counted
        apart: a burst after a swap means some extension cached
        old-instance references instead of re-minting. *)
     t.m_revoked <- t.m_revoked + 1
   | Dispatcher.Handler_exception _ | Dispatcher.Handler_overrun -> ());
  if not d.d_quarantined then begin
    (match f.Dispatcher.fault_policy with
     | Dispatcher.Uninstall -> ()      (* dispatcher already evicted it *)
     | Dispatcher.Quarantine { window_us; max_faults } ->
       if recent_faults d ~window_us now >= max_faults then quarantine t d
     | Dispatcher.Restart { delay_us; backoff; max_restarts } ->
       if f.Dispatcher.fault_removed then begin
         let hid = f.Dispatcher.fault_handler_id in
         (* A handler that stayed healthy for the grace period has
            earned its restart budget back: forget its attempt count,
            so a later, unrelated fault backs off from the start
            instead of from where a long-past burst left off. *)
         (match Hashtbl.find_opt t.fault_times hid with
          | Some last
            when now -. last >= healthy_grace_us
              && Hashtbl.mem t.restarts hid ->
            Hashtbl.remove t.restarts hid;
            t.m_backoff_resets <- t.m_backoff_resets + 1
          | Some _ | None -> ());
         Hashtbl.replace t.fault_times hid now;
         let n = Option.value ~default:0 (Hashtbl.find_opt t.restarts hid) in
         if n >= max_restarts then t.m_gave_up <- t.m_gave_up + 1
         else begin
           (* Exponential backoff, capped: unbounded growth turns a
              flaky-but-useful handler into a permanently absent one. *)
           let delay = delay_us *. (backoff ** float_of_int n) in
           let delay =
             if delay > max_restart_delay_us then begin
               t.m_backoff_capped <- t.m_backoff_capped + 1;
               max_restart_delay_us
             end else delay in
           schedule_restart t d f ~delay_us:delay ~attempt:(n + 1)
         end
       end);
    (* A domain-level budget (register_domain) applies on top of any
       per-handler policy. *)
    if not d.d_quarantined then
      match d.d_budget with
      | Some { window_us; max_faults }
        when recent_faults d ~window_us now >= max_faults ->
        quarantine t d
      | _ -> ()
  end

let create sim disp =
  let quarantined_ev =
    Dispatcher.declare disp ~name:"Supervisor.ExtensionQuarantined"
      ~owner:"Supervisor" (fun (_ : quarantine) -> ()) in
  let restarted_ev =
    Dispatcher.declare disp ~name:"Supervisor.ExtensionRestarted"
      ~owner:"Supervisor" (fun (_ : restart) -> ()) in
  let t = {
    sim; disp;
    domains = Hashtbl.create 16;
    owners = Hashtbl.create 16; restarts = Hashtbl.create 16;
    fault_times = Hashtbl.create 16;
    quarantined_ev; restarted_ev;
    unlink = (fun _ -> ());
    m_faults = 0; m_restarts = 0; m_gave_up = 0;
    m_backoff_capped = 0; m_backoff_resets = 0; m_revoked = 0;
  } in
  Dispatcher.set_fault_handler disp (on_fault t);
  t

let is_quarantined t domain =
  match Hashtbl.find_opt t.domains domain with
  | Some d -> d.d_quarantined
  | None -> false

let faults t domain =
  match Hashtbl.find_opt t.domains domain with
  | Some d -> d.d_faults
  | None -> 0

let cancel_pending t ~domain =
  match Hashtbl.find_opt t.domains domain with
  | None -> 0
  | Some d ->
    let n = List.length d.d_pending in
    List.iter (fun h -> Sim.cancel t.sim h) d.d_pending;
    d.d_pending <- [];
    n

let installers t ~domain =
  match Hashtbl.find_opt t.domains domain with
  | None -> [ domain ]
  | Some d ->
    if List.mem d.d_name d.d_installers then d.d_installers
    else d.d_name :: d.d_installers

let stats t = {
  s_faults = t.m_faults;
  s_restarts = t.m_restarts;
  s_gave_up = t.m_gave_up;
  s_backoff_capped = t.m_backoff_capped;
  s_backoff_resets = t.m_backoff_resets;
  s_revoked = t.m_revoked;
}

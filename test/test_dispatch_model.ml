(* Differential test of the event dispatcher against a naive reference
   model. The model keeps each event's handlers in plain lists and
   works every raise out from scratch: which handlers are live, which
   route the raise takes, and what each step costs, summing [costs]
   itself. QCheck drives random sequences of declarations, installs
   by spec, uninstalls, added guards, primary
   removal, gates (with a swap performed while a
   raise is held), raises, and flushes of deferred handlers. A handler
   body may also uninstall an indexed handler of its own event while
   the raise runs. After
   every step the real dispatcher must agree with the model on the
   handlers invoked and their order, the combined result (or
   [No_handler], or the primary's exception), every event's stats, the
   virtual cycles charged, and a clean audit. *)

open Spin_core
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Trace = Spin_machine.Trace
module Handler_spec = Dispatcher.Handler_spec

exception Boom
exception Primary_failed

let costs = Cost.alpha_133

let call_cost = costs.Cost.cross_module_call

let layout : int Ebc.layout =
  Ebc.layout ~name:"Model.Ev" ~fields:[ ("x", Ty.Int) ] ~read:(fun x _ -> x) ()

(* Raised arguments are 0..7. The index hashes them onto four keys,
   and every primary implementation throws on 7. *)
let index_of x = x mod 4

let primary_fails x = x = 7

let guard_of g x = (x + g) mod 3 <> 0

let installers = [| "a"; "b"; "c" |]

type hspec = {
  installer : int;
  guard : int option;
  bound : int option;
  async : bool;
  key : int option;
  verified : int option;     (* [Ebc.match_field ~slot:0 v] *)
  work : int;                (* cycles the body charges *)
  raises_on : int option;    (* the body throws on this argument *)
  evicts : int option;       (* the body sweeps this installer *)
  meddles : int option;
  (* the body uninstalls this pick among its event's indexed handlers *)
}

type op =
  | Declare of { index : bool; layout : bool; sum : bool }
  | Install of int * int * hspec      (* event, handler id, spec *)
  | Uninstall of int * int            (* event, handler pick *)
  | Add_guard of int * int * int      (* event, handler pick, guard *)
  | Remove_primary of int
  | Gate of int * op                  (* the swap a held raise waits out *)
  | Ungate of int
  | Raise of int * int
  | Flush

type outcome =
  | Done
  | Result of int
  | No_handler
  | Primary_raised
  | Escaped of string
  | Installed
  | Install_failed of Dispatcher.install_error
  | Flushed of int

(* ------------------------------------------------------------------ *)
(* State: each event carries the real dispatcher's half and the       *)
(* model's half side by side                                          *)
(* ------------------------------------------------------------------ *)

type mh = {
  id : int;
  spec : hspec;
  primary : bool;
  mutable guards : (int -> bool) list;
  mutable trusted : int option;      (* verified value, trusted path *)
  bound : int option;
  mutable active : bool;
}

type counters = {
  mutable raises : int;
  mutable fast : int;
  mutable invocations : int;
  mutable rejections : int;
  mutable aborted : int;
  mutable failures : int;
  mutable stale : int;
  mutable waits : int;
  mutable trusted_n : int;
}

type event = {
  e : (int, int) Dispatcher.event;
  name : string;
  index : bool;
  layout : bool;
  sum : bool;
  mutable hs : (int, int) Dispatcher.handler list;   (* install order *)
  mutable keyed : (int, int) Dispatcher.handler list;  (* the indexed ones *)
  mutable r_swap : op option;
  m_primary : mh;
  mutable primary_active : bool;
  mutable linear : mh list;          (* live unindexed, dispatch order *)
  mutable all : mh list;             (* install order *)
  mutable gated : bool;
  mutable m_swap : op option;
  c : counters;
}

type world = {
  clock : Clock.t;
  d : Dispatcher.t;
  mutable events : event list;       (* declaration order *)
  log : int list ref;                (* real bodies run, newest first *)
  mutable raising : event option;
  deferred : (unit -> unit) Queue.t;  (* asynchronous bodies, spawn order *)
  violations : string list ref;
  mutable mlog : int list;
  mutable mcycles : int;
  mutable queued : (event * mh * int) list;   (* newest first *)
  mutable m_rejections : int;
}

let with_event w i f =
  match w.events with
  | [] -> Done
  | es -> f (List.nth es (i mod List.length es))

(* The swap's gate switch, by event name. *)
let set_gate w ev v = Dispatcher.set_gate_by_name w.d ~names:[ ev.name ] v

let pick l k = List.nth l (k mod List.length l)

(* ------------------------------------------------------------------ *)
(* The real dispatcher                                                *)
(* ------------------------------------------------------------------ *)

let body w ev s id x =
  w.log := id :: !(w.log);
  Clock.charge w.clock s.work;
  Option.iter
    (fun i ->
      ignore (Dispatcher.uninstall_installer w.d ~installer:installers.(i)))
    s.evicts;
  (match s.meddles, ev.keyed with
   | Some k, (_ :: _ as keyed) -> Dispatcher.uninstall ev.e (pick keyed k)
   | Some _, [] | None, _ -> ());
  if s.raises_on = Some x then raise Boom;
  id

let to_spec s : int Handler_spec.t =
  let base =
    match s.verified with
    | Some v -> Handler_spec.verified (Ebc.match_field ~slot:0 v)
    | None -> Handler_spec.default in
  { base with
    Handler_spec.guard = Option.map guard_of s.guard;
    bound_cycles = s.bound;
    async = s.async;
    index_key = s.key }

let real_apply w op =
  let with_handler i k f =
    with_event w i (fun ev -> if ev.hs = [] then Done else f ev (pick ev.hs k)) in
  match op with
  | Declare _ -> Done
  | Install (i, id, s) ->
    with_event w i (fun ev ->
      match
        Dispatcher.install ev.e ~installer:installers.(s.installer)
          ~spec:(to_spec s) (body w ev s id)
      with
      | Ok h ->
        ev.hs <- ev.hs @ [ h ];
        if s.key <> None then ev.keyed <- ev.keyed @ [ h ];
        Installed
      | Error err -> Install_failed err)
  | Uninstall (i, k) ->
    with_handler i k (fun ev h -> Dispatcher.uninstall ev.e h; Done)
  | Add_guard (i, k, g) ->
    with_handler i k (fun _ h -> Dispatcher.add_guard h (guard_of g); Done)
  | Remove_primary i ->
    with_event w i (fun ev ->
      match Dispatcher.remove_primary ev.e ~requester:"model" with
      | Ok () -> Done
      | Error `Denied -> Escaped "removal denied")
  | Gate (i, swap) ->
    with_event w i (fun ev -> set_gate w ev true; ev.r_swap <- Some swap; Done)
  | Ungate i ->
    with_event w i (fun ev -> set_gate w ev false; ev.r_swap <- None; Done)
  | Raise (i, x) ->
    with_event w i (fun ev ->
      w.raising <- Some ev;
      match Dispatcher.raise_event ev.e x with
      | r -> Result r
      | exception Dispatcher.No_handler _ -> No_handler
      | exception Primary_failed -> Primary_raised
      | exception exn -> Escaped (Printexc.to_string exn))
  | Flush ->
    let n = Queue.length w.deferred in
    (try
       while not (Queue.is_empty w.deferred) do (Queue.pop w.deferred) () done;
       Flushed n
     with exn -> Escaped (Printexc.to_string exn))

(* The scheduler's half of a hot swap, in miniature: the held raise
   parks here while the swap re-points handlers, then re-checks the
   gate and dispatches against whatever is installed now. *)
let gate_wait w () =
  match w.raising with
  | None -> false
  | Some ev ->
    Option.iter (fun swap -> ignore (real_apply w swap)) ev.r_swap;
    ev.r_swap <- None;
    set_gate w ev false;
    true

(* ------------------------------------------------------------------ *)
(* The reference model                                                *)
(* ------------------------------------------------------------------ *)

let charge w n = w.mcycles <- w.mcycles + n

let deactivate ev m =
  if m.active then begin
    m.active <- false;
    ev.linear <- List.filter (fun x -> x != m) ev.linear
  end

let sweep w installer =
  List.iter
    (fun ev ->
      List.iter (fun m -> if m.spec.installer = installer then deactivate ev m)
        ev.all)
    w.events

(* A body's uninstall of one of its event's indexed handlers. *)
let meddle ev m =
  match m.spec.meddles, List.filter (fun x -> x.spec.key <> None) ev.all with
  | Some k, (_ :: _ as keyed) -> deactivate ev (pick keyed k)
  | Some _, [] | None, _ -> ()

(* The [sum] events' combine. It does not commute, so a dispatcher that
   folds in any order but dispatch order disagrees with the model. *)
let mix acc r = (acc * 31) + r

(* [results] in dispatch order: the first seeds the fold. *)
let combine ev results =
  match results with
  | [] -> No_handler
  | r :: rest ->
    Result (List.fold_left (if ev.sum then mix else fun _ r -> r) r rest)

let call_primary w ev m x =
  ev.c.invocations <- ev.c.invocations + 1;
  w.mlog <- m.id :: w.mlog;
  if primary_fails x then raise Primary_failed;
  1000 + x

(* A synchronous invocation: faults are caught and evict the handler;
   a bounded body that overran has its result discarded. The primary
   is trusted and runs bare. *)
let run_sync w ev m x =
  if m.primary then Some (call_primary w ev m x)
  else begin
    ev.c.invocations <- ev.c.invocations + 1;
    w.mlog <- m.id :: w.mlog;
    charge w m.spec.work;
    Option.iter (sweep w) m.spec.evicts;
    meddle ev m;
    let result =
      if m.spec.raises_on = Some x then begin
        ev.c.failures <- ev.c.failures + 1;
        deactivate ev m;
        None
      end else Some m.id in
    match m.bound with
    | Some b when m.spec.work > b ->
      ev.c.aborted <- ev.c.aborted + 1;
      None
    | Some _ | None -> result
  end

let guards_pass w ev m x =
  List.for_all
    (fun g ->
      charge w costs.Cost.guard_eval;
      g x || (ev.c.rejections <- ev.c.rejections + 1; false))
    m.guards

let rec model_apply w op =
  let with_handler i k f =
    with_event w i (fun ev -> if ev.all = [] then Done else f ev (pick ev.all k)) in
  match op with
  | Declare _ -> Done
  | Install (i, id, s) -> with_event w i (fun ev -> install w ev id s)
  | Uninstall (i, k) -> with_handler i k (fun ev m -> deactivate ev m; Done)
  | Add_guard (i, k, g) ->
    with_handler i k (fun _ m ->
      Option.iter
        (fun v -> m.trusted <- None; m.guards <- m.guards @ [ (fun x -> x = v) ])
        m.trusted;
      m.guards <- m.guards @ [ guard_of g ];
      Done)
  | Remove_primary i -> with_event w i (fun ev -> ev.primary_active <- false; Done)
  | Gate (i, swap) ->
    with_event w i (fun ev -> ev.gated <- true; ev.m_swap <- Some swap; Done)
  | Ungate i -> with_event w i (fun ev -> ev.gated <- false; ev.m_swap <- None; Done)
  | Raise (i, x) ->
    with_event w i (fun ev ->
      match raise_ w ev x with
      | r -> r
      | exception Primary_failed -> Primary_raised)
  | Flush ->
    let jobs = List.rev w.queued in
    w.queued <- [];
    (* A deferred body's fault is contained as a synchronous one's:
       counted, and the handler evicted. *)
    List.iter
      (fun (ev, m, x) ->
        if m.active then begin
          w.mlog <- m.id :: w.mlog;
          charge w m.spec.work;
          Option.iter (sweep w) m.spec.evicts;
          meddle ev m;
          if m.spec.raises_on = Some x then begin
            ev.c.failures <- ev.c.failures + 1;
            deactivate ev m
          end
        end else ev.c.stale <- ev.c.stale + 1)
      jobs;
    Flushed (List.length jobs)

and install w ev id s =
  if s.key <> None && not ev.index then Install_failed Dispatcher.No_index
  else
    let verdict =
      match s.verified with
      | None -> Ok None
      | Some _ when not ev.layout -> Error (Ebc.No_layout ev.name)
      | Some v ->
        let prog = Ebc.match_field ~slot:0 v in
        let budget =
          match s.bound with
          | Some b -> max 1 (b / costs.Cost.ebc_step)
          | None -> Ebc.default_budget in
        (match Ebc.verify ~layout ~budget prog with
         | Ok _ -> charge w (Ebc.verify_cycles costs prog); Ok (Some v)
         | Error err -> Error err) in
    match verdict with
    | Error err ->
      w.m_rejections <- w.m_rejections + 1;
      Install_failed (Dispatcher.Rejected err)
    | Ok v ->
      let trusted = if s.guard = None then v else None in
      let demoted =
        match v, trusted with
        | Some v, None -> [ (fun x -> x = v) ]
        | _ -> [] in
      let m =
        { id; spec = s; primary = false;
          guards = demoted @ Option.to_list (Option.map guard_of s.guard);
          trusted; bound = (if trusted <> None then None else s.bound);
          active = true } in
      ev.all <- ev.all @ [ m ];
      if s.key = None then ev.linear <- ev.linear @ [ m ];
      Installed

(* Each raise re-derives its route from the live lists: a sole
   verified synchronous handler takes the trusted path, a sole
   unguarded, unbounded synchronous handler is a procedure call,
   anything else (or any live indexed handler) walks the guards. *)
and raise_ w ev x =
  if ev.gated then begin
    ev.c.waits <- ev.c.waits + 1;
    Option.iter (fun swap -> ignore (model_apply w swap)) ev.m_swap;
    ev.m_swap <- None;
    ev.gated <- false
  end;
  ev.c.raises <- ev.c.raises + 1;
  let linear =
    (if ev.primary_active then [ ev.m_primary ] else []) @ ev.linear in
  let live_indexed =
    List.exists (fun m -> m.active && m.spec.key <> None) ev.all in
  match linear with
  | [ m ] when m.trusted <> None && not m.spec.async && not live_indexed ->
    charge w costs.Cost.trusted_eval;
    if m.trusted = Some x then begin
      ev.c.trusted_n <- ev.c.trusted_n + 1;
      charge w costs.Cost.trusted_invoke;
      combine ev (Option.to_list (run_sync w ev m x))
    end else combine ev []
  | [ m ]
    when m.guards = [] && m.trusted = None && not m.spec.async
         && m.bound = None && not live_indexed ->
    ev.c.fast <- ev.c.fast + 1;
    charge w call_cost;
    if m.primary then Result (call_primary w ev m x)
    else combine ev (Option.to_list (run_sync w ev m x))
  | _ ->
    charge w costs.Cost.dispatch_fixed;
    let indexed =
      if ev.index then begin
        charge w costs.Cost.guard_eval;
        List.filter
          (fun m -> m.active && m.spec.key = Some (index_of x)) ev.all
      end else [] in
    let step acc m =
      if not m.active then acc
      else
        let passed =
          match m.trusted with
          | Some v -> charge w costs.Cost.trusted_eval; x = v
          | None -> guards_pass w ev m x in
        if not passed then acc
        else begin
          if m.trusted <> None then begin
            ev.c.trusted_n <- ev.c.trusted_n + 1;
            charge w costs.Cost.trusted_invoke
          end else charge w costs.Cost.handler_invoke;
          if m.spec.async then begin
            ev.c.invocations <- ev.c.invocations + 1;
            w.queued <- (ev, m, x) :: w.queued;
            acc
          end else
            match run_sync w ev m x with Some r -> r :: acc | None -> acc
        end in
    combine ev (List.rev (List.fold_left step [] (linear @ indexed)))

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let no_spec =
  { installer = 0; guard = None; bound = None; async = false; key = None;
    verified = None; work = 0; raises_on = None; evicts = None;
    meddles = None }

let declare w ~index ~layout:lay ~sum =
  let n = List.length w.events in
  let name = Printf.sprintf "E%d" n in
  let pid = -(n + 1) in
  let primary x =
    w.log := pid :: !(w.log);
    if primary_fails x then raise Primary_failed;
    1000 + x in
  let e =
    Dispatcher.declare w.d ~name ~owner:"model"
      ?layout:(if lay then Some layout else None)
      ?combine:(if sum then Some mix else None)
      ?index:(if index then Some index_of else None)
      ~allow_remove_primary:(fun ~requester:_ -> true)
      primary in
  let m_primary =
    { id = pid; spec = no_spec; primary = true; guards = []; trusted = None;
      bound = None; active = true } in
  let c =
    { raises = 0; fast = 0; invocations = 0; rejections = 0; aborted = 0;
      failures = 0; stale = 0; waits = 0; trusted_n = 0 } in
  w.events <-
    w.events
    @ [ { e; name; index; layout = lay; sum; hs = []; keyed = []; r_swap = None;
          m_primary; primary_active = true; linear = []; all = [];
          gated = false; m_swap = None; c } ]

let expected_stats c =
  { Dispatcher.raises = c.raises; fast_path = c.fast;
    invocations = c.invocations; guard_rejections = c.rejections;
    aborted = c.aborted; handler_failures = c.failures; stale_skips = c.stale;
    gated_waits = c.waits; trusted_fast = c.trusted_n }

let show_stats (s : Dispatcher.stats) =
  Printf.sprintf "raises=%d fast=%d inv=%d rej=%d abort=%d fail=%d stale=%d \
                  waits=%d trusted=%d"
    s.Dispatcher.raises s.Dispatcher.fast_path s.Dispatcher.invocations
    s.Dispatcher.guard_rejections s.Dispatcher.aborted
    s.Dispatcher.handler_failures s.Dispatcher.stale_skips
    s.Dispatcher.gated_waits s.Dispatcher.trusted_fast

let show_outcome = function
  | Done -> "done"
  | Result r -> Printf.sprintf "result %d" r
  | No_handler -> "No_handler"
  | Primary_raised -> "primary raised"
  | Escaped s -> "escaped " ^ s
  | Installed -> "installed"
  | Install_failed err -> Dispatcher.install_error_to_string err
  | Flushed n -> Printf.sprintf "flushed %d" n

let show_opt = function Some n -> string_of_int n | None -> "-"

let rec show_op = function
  | Declare { index; layout; sum } ->
    Printf.sprintf "declare(index=%b layout=%b sum=%b)" index layout sum
  | Install (i, id, s) ->
    Printf.sprintf
      "install(ev%d #%d %s guard=%s bound=%s async=%b key=%s verified=%s \
       work=%d raises_on=%s evicts=%s uninstalls=%s)"
      i id installers.(s.installer) (show_opt s.guard) (show_opt s.bound)
      s.async (show_opt s.key) (show_opt s.verified) s.work
      (show_opt s.raises_on) (show_opt s.evicts) (show_opt s.meddles)
  | Uninstall (i, k) -> Printf.sprintf "uninstall(ev%d h%d)" i k
  | Add_guard (i, k, g) -> Printf.sprintf "add_guard(ev%d h%d g%d)" i k g
  | Remove_primary i -> Printf.sprintf "remove_primary(ev%d)" i
  | Gate (i, swap) -> Printf.sprintf "gate(ev%d, %s)" i (show_op swap)
  | Ungate i -> Printf.sprintf "ungate(ev%d)" i
  | Raise (i, x) -> Printf.sprintf "raise(ev%d %d)" i x
  | Flush -> "flush"

let step w n op =
  let fail fmt =
    QCheck2.Test.fail_reportf ("step %d, %s: " ^^ fmt) n (show_op op) in
  let before = Clock.now w.clock in
  w.log := [];
  w.mlog <- [];
  w.mcycles <- 0;
  (match op with
   | Declare { index; layout; sum } -> declare w ~index ~layout ~sum
   | _ -> ());
  let real = real_apply w op in
  let model = model_apply w op in
  if real <> model then
    fail "outcome %s, model %s" (show_outcome real) (show_outcome model);
  let ids l = String.concat " " (List.rev_map string_of_int l) in
  if !(w.log) <> w.mlog then
    fail "invoked [%s], model [%s]" (ids !(w.log)) (ids w.mlog);
  let spent = Clock.now w.clock - before in
  if spent <> w.mcycles then fail "charged %d cycles, model %d" spent w.mcycles;
  List.iter
    (fun ev ->
      let got = Dispatcher.stats ev.e and want = expected_stats ev.c in
      if got <> want then
        fail "%s stats {%s}, model {%s}" ev.name (show_stats got)
          (show_stats want);
      let live_indexed =
        List.length (List.filter (fun m -> m.active && m.spec.key <> None) ev.all) in
      let live =
        (if ev.primary_active then 1 else 0) + List.length ev.linear
        + live_indexed in
      if Dispatcher.handler_count ev.e <> live then
        fail "%s counts %d handlers, model %d" ev.name
          (Dispatcher.handler_count ev.e) live;
      if Dispatcher.indexed_active ev.e <> live_indexed then
        fail "%s counts %d indexed, model %d" ev.name
          (Dispatcher.indexed_active ev.e) live_indexed)
    w.events;
  if Dispatcher.verifier_rejections w.d <> w.m_rejections then
    fail "%d verifier rejections, model %d"
      (Dispatcher.verifier_rejections w.d) w.m_rejections;
  let reports = ref [] in
  Dispatcher.audit w.d (fun m -> reports := m :: !reports);
  match !reports @ !(w.violations) with
  | [] -> ()
  | msg :: _ -> fail "invariant broken: %s" msg

let run (trace, ops) =
  let clock = Clock.create Cost.alpha_133 in
  let d = Dispatcher.create clock in
  if trace then Trace.enable (Dispatcher.tracer d);
  let w =
    { clock; d; events = []; log = ref []; raising = None;
      deferred = Queue.create (); violations = ref []; mlog = []; mcycles = 0;
      queued = []; m_rejections = 0 } in
  (* The scheduler's spawn hook, in miniature: an asynchronous body
     waits in [deferred] until a [Flush] runs it. *)
  Dispatcher.set_async_spawn d (fun thunk -> Queue.add thunk w.deferred);
  Dispatcher.set_violation_hook d
    (Some (fun m -> w.violations := m :: !(w.violations)));
  Dispatcher.set_gate_wait d (Some (gate_wait w));
  List.iteri (step w) ops;
  Trace.disable (Dispatcher.tracer d);
  true

(* ------------------------------------------------------------------ *)
(* Generators                                                         *)
(* ------------------------------------------------------------------ *)

let gen_spec =
  let open QCheck2.Gen in
  let* installer = int_range 0 2 in
  let* guard = opt ~ratio:0.3 (int_range 0 2) in
  let* bound =
    opt ~ratio:0.25 (frequency [ (1, int_range 1 10); (4, int_range 20 400) ]) in
  let* async = frequency [ (4, pure false); (1, pure true) ] in
  let* key = opt ~ratio:0.3 (int_range 0 3) in
  let* verified = opt ~ratio:0.35 (int_range 0 7) in
  let* work = oneofl [ 0; 0; 10; 150; 600 ] in
  let* raises_on =
    opt ~ratio:0.25
      (match key with
       | Some k -> oneofl [ k; k + 4 ]   (* the raises its slot sees *)
       | None -> int_range 0 7) in
  let* evicts = opt ~ratio:0.1 (int_range 0 2) in
  let* meddles = opt ~ratio:0.15 (int_range 0 3) in
  pure { installer; guard; bound; async; key; verified; work; raises_on;
         evicts; meddles }

let gen_declare =
  QCheck2.Gen.(
    map3 (fun index layout sum -> Declare { index; layout; sum }) bool bool bool)

let gen_mutation =
  let open QCheck2.Gen in
  let ev = int_range 0 9 and pick = int_range 0 15 in
  frequency
    [ (6, map2 (fun i s -> Install (i, 0, s)) ev gen_spec);
      (2, map2 (fun i k -> Uninstall (i, k)) ev pick);
      (1, map3 (fun i k g -> Add_guard (i, k, g)) ev pick (int_range 0 2));
      (1, map (fun i -> Remove_primary i) ev) ]

let gen_op =
  let open QCheck2.Gen in
  let ev = int_range 0 9 in
  frequency
    [ (1, gen_declare);
      (6, gen_mutation);
      (1, map2 (fun i swap -> Gate (i, swap)) ev gen_mutation);
      (1, map (fun i -> Ungate i) ev);
      (8, map2 (fun i x -> Raise (i, x)) ev (int_range 0 7));
      (1, pure Flush) ]

(* Handler ids are assigned in op order, so a shrunk case stays
   well-formed. *)
let number ops =
  let next = ref 0 in
  let rec go = function
    | Install (i, _, s) -> incr next; Install (i, !next, s)
    | Gate (i, swap) -> Gate (i, go swap)
    | op -> op in
  List.map go ops

let gen_case =
  let open QCheck2.Gen in
  let* trace = frequency [ (4, pure false); (1, pure true) ] in
  let* first = gen_declare in
  let* rest = list_size (int_range 0 60) gen_op in
  pure (trace, number ((first :: rest) @ [ Flush ]))

let print_case (trace, ops) =
  Printf.sprintf "trace=%b\n%s" trace (String.concat "\n" (List.map show_op ops))

let prop_matches_model =
  QCheck2.Test.make ~name:"dispatcher agrees with the reference model"
    ~count:1000 ~print:print_case gen_case run

(* The snapshot rule on its own: a raise runs the indexed handlers
   that were active when it began. One linked into the raised slot
   mid-raise sits that raise out and runs from the next; one
   uninstalled mid-raise is skipped at once. *)
let test_mid_raise_relink () =
  let d = Dispatcher.create (Clock.create Cost.alpha_133) in
  let ran = ref 0 in
  let e =
    Dispatcher.declare d ~name:"E" ~owner:"model" ~index:index_of
      ~combine:( + ) (fun _ -> 0) in
  let install spec fn =
    Dispatcher.ok_exn ~site:"test"
      (Dispatcher.install e ~installer:"a" ~spec fn) in
  let indexed () =
    install (Handler_spec.indexed 1) (fun x ->
      incr ran;
      if x = 5 then raise Boom;
      1) in
  let target = ref (indexed ()) in
  ignore
    (install Handler_spec.default (fun x ->
       if x = 1 && Dispatcher.indexed_active e = 0 then target := indexed ();
       if x = 9 then Dispatcher.uninstall e !target;
       0));
  let raise_ x = ran := 0; ignore (Dispatcher.raise_event e x) in
  raise_ 5;
  Alcotest.(check int) "the fault evicted it" 0 (Dispatcher.indexed_active e);
  raise_ 1;
  Alcotest.(check int) "linked mid-raise" 1 (Dispatcher.indexed_active e);
  Alcotest.(check int) "it sat that raise out" 0 !ran;
  raise_ 1;
  Alcotest.(check int) "the next raise runs it" 1 !ran;
  raise_ 9;
  Alcotest.(check int) "uninstalled mid-raise, skipped" 0 !ran

let () =
  Alcotest.run "spin_dispatch_model"
    [ ("model",
       [ QCheck_alcotest.to_alcotest prop_matches_model;
         Alcotest.test_case "a mid-raise re-link waits for the next raise"
           `Quick test_mid_raise_relink ]) ]

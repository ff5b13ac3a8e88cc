module Timer_wheel = Spin_dstruct.Timer_wheel

let nop () = ()

type handle = (unit -> unit) Timer_wheel.handle

type stats = {
  live : int;
  fired : int;
  cancelled : int;
  pool_hits : int;
  pool_misses : int;
}

type t = {
  clock : Clock.t;
  wheel : (unit -> unit) Timer_wheel.t;
  mutable firing : bool;
  mutable n_fired : int;
  mutable n_cancelled : int;
}

let rec fire_loop t =
  (* Re-advance each iteration: the action just fired may have charged
     the clock (recursion is suppressed by [firing]). Advancing to an
     unchanged time is a single comparison. *)
  Timer_wheel.advance t.wheel (Clock.now t.clock);
  match Timer_wheel.pop_due t.wheel with
  | Some action ->
    t.n_fired <- t.n_fired + 1;
    action ();
    fire_loop t
  | None -> ()

(* A clock hook, so it runs on every charge: a pass with nothing due
   allocates nothing ([firing] is reset in an exception arm, not in a
   [~finally] closure built per call). *)
let fire_due t =
  if not t.firing then begin
    t.firing <- true;
    match fire_loop t with
    | () -> t.firing <- false
    | exception e -> t.firing <- false; raise e
  end

let create clock =
  let wheel = Timer_wheel.create ~start:(Clock.now clock) ~dummy:nop () in
  let t = { clock; wheel; firing = false; n_fired = 0; n_cancelled = 0 } in
  Clock.add_hook clock (fun _ -> fire_due t);
  t

let clock t = t.clock

let now t = Clock.now t.clock

let at t time action =
  let time = max time (Clock.now t.clock) in
  Timer_wheel.add t.wheel ~time action

let after t delta action = at t (Clock.now t.clock + delta) action

let after_us t us action =
  after t (Cost.us_to_cycles (Clock.cost t.clock) us) action

let cancel t h =
  if Timer_wheel.cancel t.wheel h then t.n_cancelled <- t.n_cancelled + 1

let live t = Timer_wheel.size t.wheel

let pending t = live t

let stats t =
  let p = Timer_wheel.pool_stats t.wheel in
  { live = Timer_wheel.size t.wheel;
    fired = t.n_fired;
    cancelled = t.n_cancelled;
    pool_hits = p.Timer_wheel.pool_hits;
    pool_misses = p.Timer_wheel.pool_misses }

let gauges t =
  let stat f () = f (stats t) in
  [ ("engine.events_live", stat (fun s -> s.live));
    ("engine.events_fired", stat (fun s -> s.fired));
    ("engine.events_cancelled", stat (fun s -> s.cancelled));
    ("engine.event_pool_hits", stat (fun s -> s.pool_hits));
    ("engine.event_pool_misses", stat (fun s -> s.pool_misses)) ]

let next_deadline t = Timer_wheel.next_deadline t.wheel

let idle_step t =
  match next_deadline t with
  | None -> false
  | Some time -> Clock.skip_to t.clock time; fire_due t; true

let run t = while idle_step t do () done

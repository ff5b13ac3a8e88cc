module Pqueue = Spin_dstruct.Pqueue

let nop () = ()

type timer = (unit -> unit) Pqueue.handle

type stats = {
  live : int;
  fired : int;
  cancelled : int;
  pool_hits : int;
  pool_misses : int;
}

type t = {
  clock : Clock.t;
  queue : (unit -> unit) Pqueue.t;
  mutable firing : bool;
  mutable n_fired : int;
  mutable n_cancelled : int;
}

(* Re-read the clock each iteration: the action just fired may have
   charged it (recursion is suppressed by [firing]). *)
let rec fire_loop t =
  if Pqueue.min_key t.queue <= Clock.now t.clock then begin
    let action = Pqueue.pop t.queue in
    t.n_fired <- t.n_fired + 1;
    action ();
    fire_loop t
  end

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
  let t = { clock; queue = Pqueue.create ~dummy:nop; firing = false;
            n_fired = 0; n_cancelled = 0 } in
  Clock.add_hook clock (fun _ -> fire_due t);
  t

let clock t = t.clock

let at t time action =
  Pqueue.add t.queue (max time (Clock.now t.clock)) action

let after t delta action = at t (Clock.now t.clock + delta) action

let timer t = Pqueue.handle t.queue

let cancel t h =
  if Pqueue.remove t.queue h then t.n_cancelled <- t.n_cancelled + 1

let arm t h delta action =
  cancel t h;
  let now = Clock.now t.clock in
  Pqueue.arm t.queue h (max (now + delta) now) action

let arm_us t h us action =
  arm t h (Cost.us_to_cycles (Clock.cost t.clock) us) action

let scheduled h = Pqueue.mem h

let pending t = Pqueue.size t.queue

let stats t =
  { live = Pqueue.size t.queue;
    fired = t.n_fired;
    cancelled = t.n_cancelled;
    pool_hits = Pqueue.pool_hits t.queue;
    pool_misses = Pqueue.pool_misses t.queue }

let idle_step t =
  not (Pqueue.is_empty t.queue)
  && begin
    Clock.skip_to t.clock (Pqueue.min_key t.queue);
    fire_due t;
    true
  end

let run t = while idle_step t do () done

type tracer = ..

type t = {
  cost : Cost.t;
  mutable now : int;
  (* Hooks run in registration order on every advance; a growable
     array keeps registration O(1) amortized (the old [hooks @ [f]]
     list append was O(hooks^2) across host construction) and the
     per-charge iteration allocation-free. *)
  mutable hooks : (t -> unit) array;
  mutable n_hooks : int;
  mutable in_hook : bool;
  mutable idle : int;
  (* SMP wall-time accounting: [now] counts *wall* cycles while charges
     are *CPU-work* cycles. With [parallel] CPUs concurrently busy the
     machine retires [parallel] work cycles per wall cycle, so a charge
     advances the wall clock by [c / parallel]; [carry] keeps the
     remainder so no work cycle is lost (deterministic integer
     arithmetic). The scheduler maintains [parallel] at slice
     boundaries; it is 1 on a uniprocessor, where the arithmetic
     degenerates to the original [now <- now + c]. *)
  mutable parallel : int;
  mutable carry : int;
  mutable tracer : tracer option;
}

let create cost =
  { cost; now = 0; hooks = [||]; n_hooks = 0; in_hook = false; idle = 0;
    parallel = 1; carry = 0; tracer = None }

let cost t = t.cost

let now t = t.now

let now_us t = Cost.cycles_to_us t.cost t.now

(* Every charge passes through here, so it must not allocate: the
   re-entrancy flag is reset in an exception arm, not in a [~finally]
   closure built per call. *)
let run_hooks t =
  if not t.in_hook then begin
    t.in_hook <- true;
    (* Capture the count so hooks added during a pass (a machine built
       from inside an event) first run on the next advance, as the old
       captured-list iteration did. *)
    let hooks = t.hooks and n = t.n_hooks in
    match
      for i = 0 to n - 1 do
        hooks.(i) t
      done
    with
    | () -> t.in_hook <- false
    | exception e -> t.in_hook <- false; raise e
  end

let charge t c =
  if c < 0 then invalid_arg "Clock.charge: negative cycles";
  if c > 0 then
    if t.parallel = 1 then begin
      t.now <- t.now + c;
      run_hooks t
    end else begin
      let total = c + t.carry in
      let adv = total / t.parallel in
      t.carry <- total mod t.parallel;
      if adv > 0 then begin
        t.now <- t.now + adv;
        run_hooks t
      end
    end

let set_parallel t k =
  if k < 1 then invalid_arg "Clock.set_parallel: need at least one CPU";
  t.parallel <- k

let skip_to t target =
  if target > t.now then begin
    t.idle <- t.idle + (target - t.now);
    t.now <- target;
    run_hooks t
  end

let idle_cycles t = t.idle

let add_hook t f =
  if t.n_hooks = Array.length t.hooks then begin
    let cap = max 4 (2 * t.n_hooks) in
    let hooks = Array.make cap (fun (_ : t) -> ()) in
    Array.blit t.hooks 0 hooks 0 t.n_hooks;
    t.hooks <- hooks
  end;
  t.hooks.(t.n_hooks) <- f;
  t.n_hooks <- t.n_hooks + 1

let stamp t f =
  let before = t.now in
  f ();
  t.now - before

let tracer t = t.tracer

let set_tracer t tr = t.tracer <- Some tr

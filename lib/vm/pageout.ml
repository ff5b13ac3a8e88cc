module Sched = Spin_sched.Sched

type t = {
  sched : Sched.t;
  phys : Phys_addr.t;
  low_water : int;
  high_water : int;
  mutable running : bool;
  mutable released : int;
}

(* The daemon's poll period, in virtual microseconds. *)
let interval_us = 200.

let create ?low_water ?high_water sched phys =
  let total = Phys_addr.total_pages phys in
  let low =
    match low_water with Some l -> l | None -> max 1 (total / 16) in
  let high =
    match high_water with Some h -> h | None -> max (low + 1) (2 * low) in
  if low < 1 || high <= low then invalid_arg "Pageout.create: water marks";
  { sched; phys; low_water = low; high_water = high;
    running = false; released = 0 }

let start t =
  if not t.running then begin
    t.running <- true;
    ignore
      (Sched.spawn t.sched ~name:"pageout" (fun () ->
           while t.running do
             if Phys_addr.free_pages t.phys < t.low_water then begin
               let keep_going = ref true in
               while
                 !keep_going && Phys_addr.free_pages t.phys < t.high_water
               do
                 if Phys_addr.force_reclaim t.phys <> None then
                   t.released <- t.released + 1
                 else keep_going := false
               done
             end;
             Sched.sleep_us t.sched interval_us
           done))
  end

let stop t = t.running <- false

let released t = t.released


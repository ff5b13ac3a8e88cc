type endpoint = A | B

type t = {
  sim : Sim.t;
  latency_us : float;
  mbps : float;
  mutable rx_a : (Bytes.t -> unit) option;
  mutable rx_b : (Bytes.t -> unit) option;
  mutable busy_until_ab : int;   (* cycles: wire free time, A->B direction *)
  mutable busy_until_ba : int;
  mutable frames : int;
  mutable loss_every : int;               (* 0 = lossless *)
  mutable dropped : int;
}

(* Framing bytes per frame: preamble, CRC, inter-frame gap. *)
let frame_overhead = 42

let create sim ?(latency_us = 5.) ~mbps () =
  if mbps <= 0. then invalid_arg "Link.create: bad line rate";
  { sim; latency_us; mbps;
    rx_a = None; rx_b = None; busy_until_ab = 0; busy_until_ba = 0;
    frames = 0; loss_every = 0; dropped = 0 }

let mbps t = t.mbps

let set_receiver t ep f =
  match ep with
  | A -> t.rx_a <- Some f
  | B -> t.rx_b <- Some f

let serialization_us t len =
  float_of_int ((len + frame_overhead) * 8) /. t.mbps

let send t ~from frame =
  let clock = Sim.clock t.sim in
  let cost = Clock.cost clock in
  let ser = Cost.us_to_cycles cost (serialization_us t (Bytes.length frame)) in
  let lat = Cost.us_to_cycles cost t.latency_us in
  let busy = match from with A -> t.busy_until_ab | B -> t.busy_until_ba in
  let start = max (Clock.now clock) busy in
  let done_tx = start + ser in
  (match from with
   | A -> t.busy_until_ab <- done_tx
   | B -> t.busy_until_ba <- done_tx);
  t.frames <- t.frames + 1;
  if t.loss_every > 0 && t.frames mod t.loss_every = 0 then
    t.dropped <- t.dropped + 1
  else
  let deliver () =
    let rx = match from with A -> t.rx_b | B -> t.rx_a in
    match rx with
    | None -> ()                               (* unplugged: frame lost *)
    | Some f -> f frame in
  ignore (Sim.at t.sim (done_tx + lat) deliver)

let set_loss t ~every =
  if every < 0 then invalid_arg "Link.set_loss";
  t.loss_every <- every

let frames_dropped t = t.dropped

type endpoint = A | B

type t = {
  sim : Sim.t;
  mbps : float;
  mutable rx_a : (Bytes.t -> unit) option;
  mutable rx_b : (Bytes.t -> unit) option;
  mutable busy_until_ab : int;   (* cycles: wire free time, A->B direction *)
  mutable busy_until_ba : int;
  wire_ab : Bytes.t Queue.t;     (* frames in flight A->B, oldest first *)
  wire_ba : Bytes.t Queue.t;
  arrive_ab : unit -> unit;      (* each direction's one delivery action *)
  arrive_ba : unit -> unit;
  mutable frames : int;
  mutable loss_every : int;               (* 0 = lossless *)
  mutable dropped : int;
}

(* Framing bytes per frame: preamble, CRC, inter-frame gap. *)
let frame_overhead = 42

(* Propagation delay of every wire. *)
let latency_us = 5.

(* A frame sent from [from] reaches the other end. Frames in one
   direction arrive in the order they were sent (each one's arrival
   is no earlier than the previous one's, and the engine fires equal
   deadlines in FIFO order), so each firing takes the oldest. *)
let arrive t from =
  let frame = Queue.pop (match from with A -> t.wire_ab | B -> t.wire_ba) in
  match (match from with A -> t.rx_b | B -> t.rx_a) with
  | None -> ()                                 (* unplugged: frame lost *)
  | Some f -> f frame

let create sim ~mbps () =
  if mbps <= 0. then invalid_arg "Link.create: bad line rate";
  let rec t =
    { sim; mbps;
      rx_a = None; rx_b = None; busy_until_ab = 0; busy_until_ba = 0;
      wire_ab = Queue.create (); wire_ba = Queue.create ();
      arrive_ab = (fun () -> arrive t A); arrive_ba = (fun () -> arrive t B);
      frames = 0; loss_every = 0; dropped = 0 } in
  t

let set_receiver t ep f =
  match ep with
  | A -> t.rx_a <- Some f
  | B -> t.rx_b <- Some f

let send t ~from frame =
  let clock = Sim.clock t.sim in
  let cost = Clock.cost clock in
  (* [Cost.us_to_cycles] of the serialization time, computed here so
     that the float stays unboxed. *)
  let ser =
    int_of_float
      (Float.round
         (float_of_int ((Bytes.length frame + frame_overhead) * 8)
          /. t.mbps *. float_of_int cost.Cost.cycles_per_us)) in
  let lat = Cost.us_to_cycles cost latency_us in
  let busy = match from with A -> t.busy_until_ab | B -> t.busy_until_ba in
  let start = max (Clock.now clock) busy in
  let done_tx = start + ser in
  (match from with
   | A -> t.busy_until_ab <- done_tx
   | B -> t.busy_until_ba <- done_tx);
  t.frames <- t.frames + 1;
  if t.loss_every > 0 && t.frames mod t.loss_every = 0 then
    t.dropped <- t.dropped + 1
  else begin
    Queue.push frame (match from with A -> t.wire_ab | B -> t.wire_ba);
    Sim.at t.sim (done_tx + lat)
      (match from with A -> t.arrive_ab | B -> t.arrive_ba)
  end

let set_loss t ~every =
  if every < 0 then invalid_arg "Link.set_loss";
  t.loss_every <- every

let frames_dropped t = t.dropped

module Ring = Spin_dstruct.Ring

type endpoint = A | B

type t = {
  sim : Sim.t;
  mbps : float;
  mutable rx_a : (Bytes.t -> int -> unit) option;
  mutable rx_b : (Bytes.t -> int -> unit) option;
  mutable busy_until_ab : int;   (* cycles: wire free time, A->B direction *)
  mutable busy_until_ba : int;
  (* Frames in flight A->B, oldest first, as a buffer and its length
     in two rings kept in step; room for 32 before they grow. *)
  wire_ab : Bytes.t Ring.t;
  len_ab : int Ring.t;
  wire_ba : Bytes.t Ring.t;
  len_ba : int Ring.t;
  arrive_ab : unit -> unit;      (* each direction's one delivery action *)
  arrive_ba : unit -> unit;
  (* Frame buffers no device holds, each [frame_size] bytes long. A
     stack: the buffer released last, the likeliest still in cache,
     goes first. *)
  free : Bytes.t Ring.t;
  mutable frame_size : int;      (* the attached devices' largest frame *)
  mutable frames : int;
  mutable loss_every : int;               (* 0 = lossless *)
  mutable dropped : int;
}

(* Framing bytes per frame: preamble, CRC, inter-frame gap. *)
let frame_overhead = 42

(* Propagation delay of every wire. *)
let latency_us = 5.

let buffer t =
  if Ring.is_empty t.free then Bytes.create t.frame_size else Ring.pop t.free

let release t b = Ring.add t.free b

(* A frame sent from [from] reaches the other end. Frames in one
   direction arrive in the order they were sent (each one's arrival
   is no earlier than the previous one's, and the engine fires equal
   deadlines in FIFO order), so each firing takes the oldest. *)
let arrive t from =
  let frame = Ring.take (match from with A -> t.wire_ab | B -> t.wire_ba) in
  let len = Ring.take (match from with A -> t.len_ab | B -> t.len_ba) in
  match (match from with A -> t.rx_b | B -> t.rx_a) with
  | None -> release t frame                    (* unplugged: frame lost *)
  | Some f -> f frame len

let create sim ~mbps () =
  if mbps <= 0. then invalid_arg "Link.create: bad line rate";
  let rec t =
    { sim; mbps;
      rx_a = None; rx_b = None; busy_until_ab = 0; busy_until_ba = 0;
      wire_ab = Ring.create ~dummy:Bytes.empty 32;
      len_ab = Ring.create ~dummy:0 32;
      wire_ba = Ring.create ~dummy:Bytes.empty 32;
      len_ba = Ring.create ~dummy:0 32;
      arrive_ab = (fun () -> arrive t A); arrive_ba = (fun () -> arrive t B);
      free = Ring.create ~dummy:Bytes.empty 32; frame_size = 0;
      frames = 0; loss_every = 0; dropped = 0 } in
  t

let set_receiver t ep ~max_frame f =
  t.frame_size <- max t.frame_size max_frame;
  match ep with
  | A -> t.rx_a <- Some f
  | B -> t.rx_b <- Some f

let send t ~from frame ~len =
  let clock = Sim.clock t.sim in
  let cost = Clock.cost clock in
  (* [Cost.us_to_cycles] of the serialization time, computed here so
     that the float stays unboxed. *)
  let ser =
    int_of_float
      (Float.round
         (float_of_int ((len + frame_overhead) * 8)
          /. t.mbps *. float_of_int cost.Cost.cycles_per_us)) in
  let lat = Cost.us_to_cycles cost latency_us in
  let busy = match from with A -> t.busy_until_ab | B -> t.busy_until_ba in
  let start = max (Clock.now clock) busy in
  let done_tx = start + ser in
  (match from with
   | A -> t.busy_until_ab <- done_tx
   | B -> t.busy_until_ba <- done_tx);
  t.frames <- t.frames + 1;
  if t.loss_every > 0 && t.frames mod t.loss_every = 0 then begin
    t.dropped <- t.dropped + 1;
    release t frame
  end else begin
    Ring.add (match from with A -> t.wire_ab | B -> t.wire_ba) frame;
    Ring.add (match from with A -> t.len_ab | B -> t.len_ba) len;
    Sim.at t.sim (done_tx + lat)
      (match from with A -> t.arrive_ab | B -> t.arrive_ba)
  end

let set_loss t ~every =
  if every < 0 then invalid_arg "Link.set_loss";
  t.loss_every <- every

let frames_dropped t = t.dropped

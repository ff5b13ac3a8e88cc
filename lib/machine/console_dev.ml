type t = {
  sim : Sim.t;
  intr : Intr.t;
  line : int;
  out : Buffer.t;
  input : char Spin_dstruct.Ring.t;
  mutable dropped : int;
}

let register_cost = 20 (* cycles per device-register write *)

let create sim intr ~line =
  { sim; intr; line; out = Buffer.create 256;
    input = Spin_dstruct.Ring.create 256; dropped = 0 }

let line t = t.line

let putc t c =
  Clock.charge (Sim.clock t.sim) register_cost;
  Buffer.add_char t.out c

let puts t s = String.iter (putc t) s

let output t = Buffer.contents t.out

let inject_input t s =
  String.iter
    (fun c -> if not (Spin_dstruct.Ring.push t.input c) then t.dropped <- t.dropped + 1)
    s;
  Intr.post t.intr ~line:t.line

let getc t = Spin_dstruct.Ring.pop t.input

let dropped t = t.dropped

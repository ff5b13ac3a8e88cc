type t = {
  sim : Sim.t;
  out : Buffer.t;
}

let register_cost = 20 (* cycles per device-register write *)

let create sim = { sim; out = Buffer.create 256 }

let putc t c =
  Clock.charge (Sim.clock t.sim) register_cost;
  Buffer.add_char t.out c

let puts t s = String.iter (putc t) s

let output t = Buffer.contents t.out

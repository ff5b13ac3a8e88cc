type t = {
  sim : Sim.t;
  out : Buffer.t;
}

let create sim = { sim; out = Buffer.create 256 }

let putc t c =
  let clock = Sim.clock t.sim in
  Clock.charge clock (Clock.cost clock).Cost.console_register;
  Buffer.add_char t.out c

let puts t s = String.iter (putc t) s

let output t = Buffer.contents t.out

module Cpu = Spin_machine.Cpu
module Machine = Spin_machine.Machine

type t = {
  machine : Machine.t;
  phys : Phys_addr.t;
  virt : Virt_addr.t;
  trans : Translation.t;
}

let create machine dispatcher =
  let phys = Phys_addr.create machine dispatcher in
  ignore (Reclaim_policy.install_second_chance phys);
  let virt = Virt_addr.create machine in
  let trans = Translation.create machine dispatcher phys in
  { machine; phys; virt; trans }

let handle_trap t trap = Translation.handle_trap t.trans trap

module Machine = Spin_machine.Machine
module Sim = Spin_machine.Sim
module Nic = Spin_machine.Nic
module Link = Spin_machine.Link
module Dispatcher = Spin_core.Dispatcher
module Sched = Spin_sched.Sched
module Phys_addr = Spin_vm.Phys_addr
module Reclaim_policy = Spin_vm.Reclaim_policy

type t = {
  machine : Machine.t;
  dispatcher : Dispatcher.t;
  sched : Sched.t;
  phys : Phys_addr.t;
  ip : Ip.t;
  icmp : Icmp.t;
  udp : Udp.t;
  tcp : Tcp.t;
  am : Active_msg.t;
  addr : Ip.addr;
}

let create ?mem_mb ?cpus sim ~name ~addr =
  let machine = Machine.create_on sim ?mem_mb ?cpus ~name () in
  let dispatcher = Dispatcher.create machine.Machine.clock in
  let sched = Sched.create ~intr:machine.Machine.intr sim dispatcher in
  let phys = Phys_addr.create machine dispatcher in
  ignore (Reclaim_policy.install_second_chance phys);
  let ip = Ip.create machine dispatcher in
  let icmp = Icmp.create ip in
  let udp = Udp.create machine dispatcher ip in
  let tcp = Tcp.create machine sched dispatcher ip in
  let am = Active_msg.create machine ip in
  { machine; dispatcher; sched; phys; ip; icmp; udp; tcp; am; addr }

let netif_name kind =
  match kind with
  | Nic.Lance -> "Ether"
  | Nic.Fore_atm -> "ATM"
  | Nic.T3 -> "T3"

let wire ?(optimized = false) ?mbps a b ~kind =
  let nic_a, nic_b = Machine.connect a.machine b.machine ~kind ?mbps () in
  let name = netif_name kind in
  (* One receive shard per CPU: protocol processing scales with the
     host's processors (a 1-CPU host keeps the single classic strand). *)
  let na =
    Netif.create ~optimized ~rx_shards:(Sched.ncpus a.sched)
      a.machine a.sched a.dispatcher nic_a ~name in
  let nb =
    Netif.create ~optimized ~rx_shards:(Sched.ncpus b.sched)
      b.machine b.sched b.dispatcher nic_b ~name in
  Ip.add_interface a.ip na ~addr:a.addr;
  Ip.add_interface b.ip nb ~addr:b.addr;
  Ip.add_route a.ip ~dst:b.addr na;
  Ip.add_route b.ip ~dst:a.addr nb;
  Netif.start na;
  Netif.start nb;
  (na, nb)

let run_all ?(until = fun () -> false) hosts =
  match hosts with
  | [] -> ()
  | first :: _ ->
    let sim = first.machine.Machine.sim in
    let rec loop () =
      if not (until ()) then begin
        let progressed =
          List.fold_left
            (fun acc h -> if Sched.step h.sched then true else acc)
            false hosts in
        if progressed then loop ()
        else if Sim.idle_step sim then loop ()
      end in
    loop ()

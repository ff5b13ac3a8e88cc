(* Section 5.5 measurements: dispatcher scalability with guards and
   the impact of automatic storage management. *)

open Spin_net
module Kernel = Spin.Kernel
module Dispatcher = Spin_core.Dispatcher
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Nic = Spin_machine.Nic
module Sched = Spin_sched.Sched
module Kheap = Spin_kgc.Kheap

let addr_a = Ip.addr_of_quad 10 0 0 1
let addr_b = Ip.addr_of_quad 10 0 0 2

(* ------------------------------------------------------------------ *)
(* Dispatcher scalability: Ethernet RTT with extra guards             *)
(* ------------------------------------------------------------------ *)

let udp_rtt_with_watchers ~count ~pass =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let a = Host.create sim ~name:"a" ~addr:addr_a in
  let b = Host.create sim ~name:"b" ~addr:addr_b in
  ignore (Host.wire a b ~kind:Nic.Lance);
  (* Watchers registering interest in the arrival of some UDP packet
     on the server. *)
  for _ = 1 to count do
    ignore
      (Dispatcher.ok_exn ~site:"b_extra"
         (Dispatcher.install (Udp.packet_arrived b.Host.udp)
            ~installer:"watcher"
            ~spec:(Dispatcher.Handler_spec.guarded (fun _ -> pass))
            (fun _ -> ())))
  done;
  ignore (Udp.listen b.Host.udp ~port:7 ~installer:"echo" (fun d ->
    ignore (Udp.send_pkt b.Host.udp ~src_port:7 ~dst:d.Udp.src
              ~port:d.Udp.src_port d.Udp.payload)));
  let rtts = ref [] and t0 = ref 0. and pending = ref 0 in
  ignore (Udp.listen a.Host.udp ~port:7070 ~installer:"probe" (fun _ ->
    rtts := (Clock.now_us clock -. !t0) :: !rtts;
    decr pending));
  ignore (Sched.spawn a.Host.sched ~name:"probe" (fun () ->
    for _ = 1 to 4 do
      t0 := Clock.now_us clock;
      incr pending;
      ignore (Udp.send a.Host.udp ~src_port:7070 ~dst:addr_b ~port:7
                (Bytes.create 16));
      while !pending > 0 do Sched.sleep_us a.Host.sched 50. done
    done));
  Host.run_all [ a; b ];
  match !rtts with
  | [] -> nan
  | _ :: warm -> Report.mean (if warm = [] then !rtts else warm)

let dispatcher_scaling () =
  Report.header "Section 5.5: dispatcher scalability (Ethernet RTT, us)";
  Printf.printf "%-42s %10s %10s\n" "configuration" "paper" "measured";
  let row name paper v =
    Printf.printf "%-42s %10.0f %10.1f\n" name paper v;
    Report.metric ~name v in
  row "no extra handlers" 565. (udp_rtt_with_watchers ~count:0 ~pass:false);
  row "50 handlers, all guards false" 585.
    (udp_rtt_with_watchers ~count:50 ~pass:false);
  row "50 handlers, all guards true" 637.
    (udp_rtt_with_watchers ~count:50 ~pass:true);
  Report.note
    "  Dispatch grows linearly with installed guards and handlers.\n"

(* ------------------------------------------------------------------ *)
(* Impact of automatic storage management                              *)
(* ------------------------------------------------------------------ *)

let gc_impact () =
  Report.header "Section 5.5: impact of automatic storage management";
  (* Fast paths avoid allocation, so disabling the collector changes
     nothing — re-measure the Table 2 fast paths under both modes. *)
  let fast_paths gc_on =
    let k = Kernel.boot ~name:"gc" () in
    Kheap.set_auto k.Kernel.heap gc_on;
    Kernel.register_syscall k ~number:0 (fun _ -> 0);
    let e = Dispatcher.declare k.Kernel.dispatcher ~name:"G.Null" ~owner:"G"
        (fun () -> ()) in
    let call = Kernel.stamp_us k (fun () -> Dispatcher.raise_event e ()) in
    let sys = Kernel.stamp_us k (fun () ->
      ignore (Kernel.syscall k ~number:0 ~args:[||])) in
    (call, sys) in
  let (c1, s1) = fast_paths true and (c0, s0) = fast_paths false in
  Printf.printf "%-42s %10s %10s\n" "fast path" "GC on" "GC off";
  let row name on_ off =
    Printf.printf "%-42s %8.2fus %8.2fus\n" name on_ off;
    Report.metric ~name:(name ^ ", GC on") on_;
    Report.metric ~name:(name ^ ", GC off") off in
  row "protected in-kernel call" c1 c0;
  row "system call" s1 s0;
  Report.require ~name:"fast paths identical with GC on and off"
    (c1 = c0 && s1 = s0);
  (* An allocation-heavy rogue extension: the collector reclaims what
     it leaks, for a bounded pause. *)
  let k = Kernel.boot ~name:"gc2" () in
  let heap = k.Kernel.heap in
  (* A live working set survives each collection (and is copied). *)
  let live = Kheap.alloc heap ~owner:"tcp" ~words:512 in
  let _root = Kheap.add_root heap ~name:"tcp-state" (Kheap.Ptr live) in
  for _ = 1 to 3000 do
    ignore (Kheap.alloc heap ~owner:"rogue-ext" ~words:16)
  done;
  let st = Kheap.stats heap in
  Printf.printf
    "  rogue extension: %d collections reclaimed %d words; total pause %.0f us\n"
    st.Kheap.collections st.Kheap.words_freed
    (Cost.cycles_to_us Cost.alpha_133 st.Kheap.pause_cycles);
  Printf.printf "  heap after storm: %d words live of %d allocated\n"
    (Kheap.live_words heap) (Kheap.heap_words heap)

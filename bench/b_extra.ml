(* Section 5.5 measurements: dispatcher scalability with guards and
   the impact of automatic storage management. *)

module Kernel = Spin.Kernel
module Cost = Spin_machine.Cost
module Nic = Spin_machine.Nic
module Kheap = Spin_kgc.Kheap

(* ------------------------------------------------------------------ *)
(* Dispatcher scalability: Ethernet RTT with extra guards             *)
(* ------------------------------------------------------------------ *)

let dispatcher_scaling () =
  Report.header "Section 5.5: dispatcher scalability (Ethernet RTT, us)";
  Printf.printf "%-42s %10s %10s\n" "configuration" "paper" "measured";
  let row name paper v =
    Printf.printf "%-42s %10.0f %10.1f\n" name paper v;
    Report.metric ~name v in
  (* The RTT at 0, 10, ..., 50 watchers, every guard false or every
     guard true. *)
  let sweep pass =
    List.map
      (fun n ->
         let watchers = List.init n (fun _ _ -> pass) in
         (float_of_int n, B_net.udp_latency ~watchers B_net.Spin_sys Nic.Lance))
      [ 0; 10; 20; 30; 40; 50 ] in
  let rejecting = sweep false and invoking = sweep true in
  let base = List.assoc 0. rejecting in
  row "no extra handlers" 565. base;
  let rejected = List.assoc 50. rejecting in
  row "50 handlers, all guards false" 585. rejected;
  let invoked = List.assoc 50. invoking in
  row "50 handlers, all guards true" 637. invoked;
  Report.require ~name:"each false guard and each invoked handler adds time"
    (base < rejected && rejected < invoked);
  let r2 points = snd (B_video.fit points) in
  Report.note "  Linear in 0 to 50 watchers: R^2 %.4f (false), %.4f (true).\n"
    (r2 rejecting) (r2 invoking);
  Report.require ~name:"the RTT is linear in false guards"
    (r2 rejecting >= B_video.linear_r2);
  Report.require ~name:"the RTT is linear in invoked handlers"
    (r2 invoking >= B_video.linear_r2)

(* ------------------------------------------------------------------ *)
(* Impact of automatic storage management                              *)
(* ------------------------------------------------------------------ *)

let gc_impact () =
  Report.header "Section 5.5: impact of automatic storage management";
  (* Fast paths avoid allocation, so disabling the collector changes
     nothing — rerun Table 2's fast paths under both modes. *)
  let fast_paths gc_on =
    let k = Kernel.boot ~cpus:1 ~name:"gc" () in
    Kheap.set_auto k.Kernel.heap gc_on;
    B_micro.spin_fast_paths k in
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
  let k = Kernel.boot ~cpus:1 ~name:"gc2" () in
  let heap = k.Kernel.heap in
  (* A live working set survives each collection (and is copied). *)
  let live = Kheap.alloc heap ~owner:"tcp" ~words:512 in
  let _root = Kheap.add_root heap (Kheap.Ptr live) in
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

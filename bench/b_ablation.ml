(* Ablations: how much each SPIN design decision buys.

   The paper argues for co-location (extensions in the kernel address
   space), the dispatcher's single-handler fast path, and guard-based
   per-instance dispatch. Each ablation keeps everything else fixed
   and removes one mechanism. *)

module Kernel = Spin.Kernel
module Dispatcher = Spin_core.Dispatcher

let install r = ignore (Dispatcher.ok_exn ~site:"b_ablation" r)

module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Machine = Spin_machine.Machine
module Addr = Spin_machine.Addr
module Vm_ext = Spin_vm.Vm_ext
module Kheap = Spin_kgc.Kheap

(* ------------------------------------------------------------------ *)
(* Ablation 1: co-location                                            *)
(* ------------------------------------------------------------------ *)

(* Without co-location, each handler invocation is an upcall to user
   space (boundary crossings and an address-space switch each way),
   and each service call from the handler is a system call — the
   microkernel structure. We install exactly that structure and rerun
   the Table 4 "Fault" and "Appel1" workloads. *)
let colocation () =
  Report.header "Ablation: co-location (Table 4 workloads, us)";
  let measure ~colocated =
    let k = Kernel.boot ~name:"abl" () in
    let clock = k.Kernel.machine.Machine.clock in
    let hw = k.Kernel.machine.Machine.cost in
    let ext = Vm_ext.create k.Kernel.vm ~app:"abl" ~pages:8 in
    Vm_ext.activate ext;
    let crossing () =
      if not colocated then begin
        (* kernel -> user upcall and back, with address-space switches *)
        Clock.charge clock (2 * (hw.Cost.trap_entry + hw.Cost.trap_exit));
        Clock.charge clock (2 * hw.Cost.addr_space_switch)
      end in
    let service_call () =
      if not colocated then
        Clock.charge clock (hw.Cost.trap_entry + hw.Cost.trap_exit + 105) in
    Vm_ext.on_protection_fault ext (fun page ->
      crossing ();
      service_call ();
      Vm_ext.protect ext ~first:page ~count:1 Addr.prot_read_write);
    Vm_ext.protect ext ~first:0 ~count:1 Addr.prot_read;
    let fault = Kernel.stamp_us k (fun () -> Vm_ext.write ext ~page:0 1L) in
    Vm_ext.on_protection_fault ext (fun page ->
      crossing ();
      service_call ();
      Vm_ext.protect ext ~first:page ~count:1 Addr.prot_read_write;
      service_call ();
      Vm_ext.protect ext ~first:((page + 1) mod 8) ~count:1 Addr.prot_read);
    Vm_ext.protect ext ~first:2 ~count:1 Addr.prot_read;
    let appel1 = Kernel.stamp_us k (fun () -> Vm_ext.write ext ~page:2 1L) in
    (fault, appel1) in
  let (f1, a1) = measure ~colocated:true in
  let (f0, a0) = measure ~colocated:false in
  Printf.printf "%-34s %12s %12s %8s\n" "workload" "co-located" "user-level"
    "ratio";
  let row name colocated user =
    Printf.printf "%-34s %10.1fus %10.1fus %7.1fx\n" name colocated user
      (user /. colocated);
    Report.metric ~name:(name ^ " co-located") colocated;
    Report.metric ~name:(name ^ " user-level") user;
    Report.metric ~unit_:"x" ~name:(name ^ " ratio") (user /. colocated) in
  row "Fault" f1 f0;
  row "Appel1" a1 a0;
  Report.note
    "  Boundary crossings alone double the fault path. The baselines\n\
    \  are another ~5x worse again because their *generic* delivery\n\
    \  machinery (signals, exception messages) cannot be specialized\n\
    \  away -- compare the OSF/1 and Mach columns of Table 4.\n"

(* ------------------------------------------------------------------ *)
(* Ablation 2: the single-handler fast path                           *)
(* ------------------------------------------------------------------ *)

let fast_path () =
  Report.header "Ablation: dispatcher fast path";
  let k = Kernel.boot ~name:"abl2" () in
  let fast = Dispatcher.declare k.Kernel.dispatcher ~name:"A.Fast" ~owner:"A"
      (fun () -> ()) in
  let slow = Dispatcher.declare k.Kernel.dispatcher ~name:"A.Slow" ~owner:"A"
      (fun () -> ()) in
  (* Any guard forces the dispatcher to take an active role. *)
  ignore (Dispatcher.remove_primary slow ~requester:"A");
  install
    (Dispatcher.install slow ~installer:"A" ~spec:(Dispatcher.Handler_spec.guarded (fun () -> true))
       (fun () -> ()));
  let f = Kernel.stamp_us k (fun () -> Dispatcher.raise_event fast ()) in
  let s = Kernel.stamp_us k (fun () -> Dispatcher.raise_event slow ()) in
  Printf.printf "  single unguarded handler (procedure call): %5.2f us\n" f;
  Printf.printf "  same handler behind one guard:             %5.2f us\n" s;
  Report.metric ~name:"single unguarded handler (procedure call)" f;
  Report.metric ~name:"same handler behind one guard" s;
  (* Scaling with handler count. *)
  Printf.printf "  dispatch cost vs installed handlers:\n";
  List.iter
    (fun n ->
      let e = Dispatcher.declare k.Kernel.dispatcher
          ~name:(Printf.sprintf "A.N%d" n) ~owner:"A"
          ~combine:(fun _ -> ()) (fun () -> ()) in
      for _ = 1 to n do
        install
          (Dispatcher.install e ~installer:"w" ~spec:(Dispatcher.Handler_spec.guarded (fun () -> true))
             (fun () -> ()))
      done;
      let us = Kernel.stamp_us k (fun () -> Dispatcher.raise_event e ()) in
      Printf.printf "    %4d handlers: %8.1f us\n" n us;
      Report.metric ~name:(Printf.sprintf "dispatch cost, %d handlers" n) us)
    [ 1; 10; 25; 50; 100 ]

(* ------------------------------------------------------------------ *)
(* Ablation 3: guards vs handler-side demultiplexing                  *)
(* ------------------------------------------------------------------ *)

let guards () =
  Report.header "Ablation: guard-based vs handler-side demultiplexing";
  let k = Kernel.boot ~name:"abl3" () in
  let protocols = 12 in
  (* Guarded: the IP idiom — the module attaches a protocol guard to
     each installation; only the matching handler body runs. *)
  let guarded = Dispatcher.declare k.Kernel.dispatcher ~name:"A.G" ~owner:"A"
      ~combine:(fun _ -> ()) (fun (_ : int) -> ()) in
  let hits = Array.make protocols 0 in
  for p = 0 to protocols - 1 do
    install
      (Dispatcher.install guarded ~installer:"proto"
         ~spec:(Dispatcher.Handler_spec.guarded (fun proto -> proto = p))
         (fun _ -> hits.(p) <- hits.(p) + 1))
  done;
  (* Unguarded: every handler runs and tests the protocol itself. *)
  let unguarded = Dispatcher.declare k.Kernel.dispatcher ~name:"A.U" ~owner:"A"
      ~combine:(fun _ -> ()) (fun (_ : int) -> ()) in
  let hits' = Array.make protocols 0 in
  for p = 0 to protocols - 1 do
    install
      (Dispatcher.install unguarded ~installer:"proto"
         (fun proto -> if proto = p then hits'.(p) <- hits'.(p) + 1))
  done;
  let g = Kernel.stamp_us k (fun () ->
    for p = 0 to protocols - 1 do Dispatcher.raise_event guarded p done) in
  let u = Kernel.stamp_us k (fun () ->
    for p = 0 to protocols - 1 do Dispatcher.raise_event unguarded p done) in
  Printf.printf "  %d protocols, one event, %d dispatches each:\n"
    protocols protocols;
  Printf.printf "    guards filter before invocation: %7.1f us\n" g;
  Printf.printf "    every handler invoked:           %7.1f us\n" u;
  Printf.printf "    guard evaluation (%d cyc) is cheaper than handler\n"
    Dispatcher.default_costs.Dispatcher.guard_eval;
  Printf.printf "    invocation (%d cyc): dispatcher-side filtering wins %.1fx\n"
    Dispatcher.default_costs.Dispatcher.handler_invoke (u /. g);
  Report.metric ~name:"guards filter before invocation" g;
  Report.metric ~name:"every handler invoked" u;
  Report.metric ~unit_:"x" ~name:"dispatcher-side filtering wins" (u /. g)

(* ------------------------------------------------------------------ *)
(* Ablation 3b: linear guards vs indexed dispatch (5.5 future work)   *)
(* ------------------------------------------------------------------ *)

let indexed_dispatch () =
  Report.header "Ablation: linear guards vs indexed dispatch (5.5 future work)";
  let k = Kernel.boot ~name:"abl5" () in
  Printf.printf "  %8s %14s %14s\n" "keys" "guards (us)" "indexed (us)";
  List.iter
    (fun n ->
      let linear = Dispatcher.declare k.Kernel.dispatcher
          ~name:(Printf.sprintf "L%d" n) ~owner:"A"
          ~combine:(fun _ -> ()) (fun (_ : int) -> ()) in
      for p = 0 to n - 1 do
        install
          (Dispatcher.install linear ~installer:"svc"
             ~spec:(Dispatcher.Handler_spec.guarded (fun x -> x = p)) (fun _ -> ()))
      done;
      let indexed = Dispatcher.declare k.Kernel.dispatcher
          ~name:(Printf.sprintf "I%d" n) ~owner:"A"
          ~combine:(fun _ -> ()) ~index:(fun x -> x) (fun (_ : int) -> ()) in
      for p = 0 to n - 1 do
        install
          (Dispatcher.install indexed ~installer:"svc"
             ~spec:(Dispatcher.Handler_spec.indexed p) (fun _ -> ()))
      done;
      let l = Kernel.stamp_us k (fun () -> Dispatcher.raise_event linear (n - 1)) in
      let i = Kernel.stamp_us k (fun () -> Dispatcher.raise_event indexed (n - 1)) in
      Printf.printf "  %8d %14.2f %14.2f\n" n l i;
      Report.metric ~name:(Printf.sprintf "guards, %d keys" n) l;
      Report.metric ~name:(Printf.sprintf "indexed, %d keys" n) i)
    [ 5; 25; 50; 100 ];
  Report.note
    "  Hashing the demultiplexing key keeps dispatch flat while linear\n\
    \  guard evaluation grows with every registered endpoint.\n"

(* ------------------------------------------------------------------ *)
(* Ablation 3c: compiled guards vs an interpreted little language     *)
(* ------------------------------------------------------------------ *)

(* Section 2's critique of "little languages" made quantitative: the
   same 64-endpoint UDP demultiplexing implemented with (a) compiled
   procedure guards, (b) the interpreted packet-filter language, and
   (c) indexed dispatch. *)
let little_language () =
  Report.header "Ablation: compiled guards vs interpreted packet filters";
  let k = Kernel.boot ~name:"abl6" () in
  let clock = k.Kernel.machine.Machine.clock in
  let endpoints = 64 in
  let frame port =
    Spin_net.Ip.encode_frame ~src:1 ~dst:2 ~proto:Spin_net.Ip.proto_udp
      (Spin_net.Udp.encode_datagram ~src_port:9 ~dst_port:port Bytes.empty) in
  let port_of pkt = Spin_net.Pkt.get_u16_le pkt 16 in
  (* (a) compiled guards *)
  let guarded = Dispatcher.declare k.Kernel.dispatcher ~name:"F.G" ~owner:"F"
      ~combine:(fun _ -> ()) (fun (_ : Spin_net.Pkt.t) -> ()) in
  for p = 0 to endpoints - 1 do
    install
      (Dispatcher.install guarded ~installer:"svc"
         ~spec:(Dispatcher.Handler_spec.guarded (fun pkt -> port_of pkt = p)) (fun _ -> ()))
  done;
  (* (b) interpreted filters, evaluated by a demux handler *)
  let programs =
    List.init endpoints (fun p -> Spin_net.Pkt_filter.match_udp_port ~port:p) in
  List.iter Spin_net.Pkt_filter.validate programs;
  let interpreted pkt =
    List.iter
      (fun prog -> ignore (Spin_net.Pkt_filter.run_view clock prog pkt))
      programs in
  (* (c) indexed dispatch *)
  let indexed = Dispatcher.declare k.Kernel.dispatcher ~name:"F.I" ~owner:"F"
      ~combine:(fun _ -> ()) ~index:port_of (fun (_ : Spin_net.Pkt.t) -> ()) in
  for p = 0 to endpoints - 1 do
    install
      (Dispatcher.install indexed ~installer:"svc"
         ~spec:(Dispatcher.Handler_spec.indexed p) (fun _ -> ()))
  done;
  let pkt = frame (endpoints - 1) in
  let g = Kernel.stamp_us k (fun () -> Dispatcher.raise_event guarded pkt) in
  let i = Kernel.stamp_us k (fun () -> interpreted pkt) in
  let x = Kernel.stamp_us k (fun () -> Dispatcher.raise_event indexed pkt) in
  Printf.printf "  %d endpoints, one packet demultiplexed:\n" endpoints;
  Printf.printf "    compiled procedure guards:     %8.1f us\n" g;
  Printf.printf "    interpreted filter programs:   %8.1f us  (%.1fx guards)\n"
    i (i /. g);
  Printf.printf "    indexed dispatch:              %8.1f us\n" x;
  Report.metric ~name:"compiled procedure guards" g;
  Report.metric ~name:"interpreted filter programs" i;
  Report.metric ~unit_:"x" ~name:"interpreted filter programs vs guards"
    (i /. g);
  Report.metric ~name:"indexed dispatch" x;
  Report.note
    "  Section 2's claim, measured: interpretation overhead dominates,\n\
    \  while compiled guards stay linear and indexing stays flat.\n"

(* ------------------------------------------------------------------ *)
(* Ablation 4: collector pause vs live heap                           *)
(* ------------------------------------------------------------------ *)

let gc_pause () =
  Report.header "Ablation: collector pause vs live heap size";
  Printf.printf "  %12s %12s %14s\n" "live words" "pause (us)" "us/Kword live";
  List.iter
    (fun live_objects ->
      let clock = Clock.create Cost.alpha_133 in
      let h = Kheap.create clock () in
      Kheap.set_auto h false;
      let roots =
        List.init live_objects (fun i ->
          let a = Kheap.alloc h ~owner:"app" ~words:32 in
          Kheap.add_root h ~name:(string_of_int i) (Kheap.Ptr a)) in
      ignore roots;
      for _ = 1 to 500 do ignore (Kheap.alloc h ~owner:"garbage" ~words:32) done;
      let pause =
        Cost.cycles_to_us Cost.alpha_133
          (Clock.stamp clock (fun () -> Kheap.collect h)) in
      let live = live_objects * 32 in
      let per_kword =
        if live = 0 then 0. else pause /. (float_of_int live /. 1000.) in
      Printf.printf "  %12d %12.1f %14.2f\n" live pause per_kword;
      Report.metric ~name:(Printf.sprintf "pause, %d live words" live) pause;
      Report.metric ~unit_:"us/Kword"
        ~name:(Printf.sprintf "us/Kword live, %d live words" live) per_kword)
    [ 0; 8; 32; 128; 512 ];
  Report.note
    "  Copying-collector pauses scale with live data, not heap size —\n\
    \  the structural reason the paper can leave collection on.\n"

(* ------------------------------------------------------------------ *)
(* Ablation 5: tracing overhead on the dispatch hot path              *)
(* ------------------------------------------------------------------ *)

(* Tracing charges no virtual cycles (it observes the simulation
   without perturbing the latencies it measures), so its cost is host
   time only: the disabled tracer is one mutable-bool check per
   instrumentation site. Measured with host wall time, with the
   virtual-cycle neutrality asserted alongside. *)
let trace_overhead () =
  Report.header "Ablation: tracing overhead (dispatcher fast path, host time)";
  let k = Kernel.boot ~name:"abl7" () in
  let tr = Kernel.trace k in
  let e = Dispatcher.declare k.Kernel.dispatcher ~name:"A.T" ~owner:"A"
      (fun () -> ()) in
  let iters = 200_000 in
  let host_us_per_raise () =
    let t0 = Report.wall_s () in
    for _ = 1 to iters do Dispatcher.raise_event e () done;
    (Report.wall_s () -. t0) *. 1e6 /. float_of_int iters in
  ignore (host_us_per_raise ());                       (* warm up *)
  Spin_machine.Trace.disable tr;
  let clock = k.Kernel.machine.Machine.clock in
  let v0 = Clock.now clock in
  let off = host_us_per_raise () in
  let v_off = Clock.now clock - v0 in
  Spin_machine.Trace.enable tr;
  let v1 = Clock.now clock in
  let on_ = host_us_per_raise () in
  let v_on = Clock.now clock - v1 in
  Spin_machine.Trace.disable tr;
  Printf.printf "  %d raises of a fast-path event:\n" iters;
  Printf.printf "    tracer disabled: %8.4f host-us/raise\n" off;
  Printf.printf "    tracer enabled:  %8.4f host-us/raise  (%.1fx)\n"
    on_ (if off > 0. then on_ /. off else 0.);
  Report.require ~name:"tracing is virtual-time neutral" (v_off = v_on);
  Printf.printf "    virtual cycles charged: disabled=%d enabled=%d %s\n"
    v_off v_on
    (if v_off = v_on then "(equal: tracing is virtual-time neutral)"
     else "(MISMATCH: tracing perturbed the simulation!)");
  Report.host ~name:"fast path, tracer off" ~unit_:"host-us" off;
  Report.host ~name:"fast path, tracer on" ~unit_:"host-us" on_

(* ------------------------------------------------------------------ *)
(* Ablation 6: schedule-fuzzing hooks when fuzzing is off             *)
(* ------------------------------------------------------------------ *)

(* The fuzzer's instrumentation (selector, probes, the preemption
   clock hook) must be free when not fuzzing: a kernel that had a
   fuzzer attached and detached runs the same workload in exactly the
   same virtual time as one that never saw a fuzzer. *)
let fuzz_overhead () =
  Report.header "Ablation: schedule-fuzzing hooks, fuzzing disabled";
  let workload ~fuzzed =
    let k = Kernel.boot ~name:"abl8" () in
    let fz =
      if fuzzed then Some (Kernel.attach_fuzz ~seed:1 k) else None in
    (match fz with Some fz -> Spin_sched.Sched_fuzz.detach fz | None -> ());
    let clock = k.Kernel.machine.Machine.clock in
    let v0 = Clock.now clock in
    for i = 1 to 4 do
      ignore (Kernel.spawn k ~name:(Printf.sprintf "w%d" i) (fun () ->
        for _ = 1 to 25 do
          Spin_sched.Sched.yield k.Kernel.sched;
          Spin_sched.Sched.sleep_us k.Kernel.sched 2.0
        done))
    done;
    Kernel.run k;
    Clock.now clock - v0 in
  let plain = workload ~fuzzed:false in
  let detached = workload ~fuzzed:true in
  Printf.printf "  virtual cycles, 4 strands x 25 yield+sleep rounds:\n";
  Printf.printf "    never attached:      %10d\n" plain;
  Report.require ~name:"detached fuzz hooks are free" (plain = detached);
  Printf.printf "    attached, detached:  %10d  %s\n" detached
    (if plain = detached then "(equal: disabled fuzzing is free)"
     else "(MISMATCH: fuzz hooks perturbed the schedule!)");
  Report.metric ~name:"fuzz off, never attached" ~unit_:"cycles"
    (float_of_int plain);
  Report.metric ~name:"fuzz off, detached" ~unit_:"cycles"
    (float_of_int detached)

let run () =
  colocation ();
  fast_path ();
  guards ();
  indexed_dispatch ();
  little_language ();
  gc_pause ();
  trace_overhead ();
  fuzz_overhead ()

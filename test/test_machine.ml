(* Tests for the simulated workstation: clock, event queue, memory,
   MMU, CPU traps, interrupts and devices. *)

open Spin_machine

open Alcotest

let fresh () = Machine.create ~name:"test" ~mem_mb:4 ()

(* ------------------------------------------------------------------ *)
(* Clock and Sim                                                      *)
(* ------------------------------------------------------------------ *)

let test_clock_charges () =
  let clock = Clock.create Cost.alpha_133 in
  check int "starts at zero" 0 (Clock.now clock);
  Clock.charge clock 100;
  check int "advances" 100 (Clock.now clock);
  Clock.charge clock 0;
  check int "zero is free" 100 (Clock.now clock);
  Clock.charge clock (Cost.us_to_cycles Cost.alpha_133 1.0);
  check int "one us is 133 cycles" 233 (Clock.now clock);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Clock.charge: negative cycles")
    (fun () -> Clock.charge clock (-1))

let test_clock_stamp_and_hooks () =
  let clock = Clock.create Cost.alpha_133 in
  let calls = ref 0 in
  Clock.add_hook clock (fun _ -> incr calls);
  let spent = Clock.stamp clock (fun () -> Clock.charge clock 50) in
  check int "stamp measures" 50 spent;
  check int "hook ran" 1 !calls;
  Clock.skip_to clock 40;                 (* in the past: no-op *)
  check int "skip_to past ignored" 50 (Clock.now clock);
  Clock.skip_to clock 200;
  check int "skip_to future" 200 (Clock.now clock);
  check int "hook ran again" 2 !calls

let test_sim_fires_in_order () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let log = ref [] in
  Sim.at sim 300 (fun () -> log := 3 :: !log);
  Sim.at sim 100 (fun () -> log := 1 :: !log);
  Sim.at sim 200 (fun () -> log := 2 :: !log);
  Sim.run sim;
  check (list int) "deadline order" [ 1; 2; 3 ] (List.rev !log);
  check int "clock at last deadline" 300 (Clock.now clock)

let test_sim_fire_on_charge () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let fired = ref false in
  Sim.at sim (Clock.now clock + 100) (fun () -> fired := true);
  Clock.charge clock 50;
  check bool "not yet due" false !fired;
  Clock.charge clock 60;                  (* passes the deadline *)
  check bool "fired from charge hook" true !fired

let test_sim_cancel () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let fired = ref false in
  let tm = Sim.timer sim in
  Sim.arm sim tm 100 (fun () -> fired := true);
  Sim.cancel sim tm;
  Sim.run sim;
  check bool "cancelled" false !fired;
  check int "pending empty" 0 (Sim.pending sim)

let test_sim_nested_schedule () =
  (* An event that schedules another event; both run in one [run]. *)
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let log = ref [] in
  Sim.at sim (Clock.now clock + 10) (fun () ->
    log := "first" :: !log;
    Sim.at sim (Clock.now clock + 10) (fun () -> log := "second" :: !log));
  Sim.run sim;
  check (list string) "chained" [ "first"; "second" ] (List.rev !log)

(* Regression (an early engine bug): [cancel] only flagged the event,
   so cancelled events stayed in the queue — counting towards
   [pending] and pinning their closures — until their deadline came
   around. A server arming and disarming timeouts leaked its whole
   retransmit history. Cancellation must unlink and release now. *)
let test_sim_cancel_unlinks_eagerly () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let n = 64 in
  let weaks = Weak.create n in
  let timers =
    Array.init n (fun i ->
      let payload = Bytes.make 64 'x' in
      Weak.set weaks i (Some payload);
      let tm = Sim.timer sim in
      Sim.arm sim tm (1_000_000 + i) (fun () ->
        ignore (Sys.opaque_identity payload));
      tm) in
  check int "all pending" n (Sim.pending sim);
  Array.iter (fun tm -> Sim.cancel sim tm) timers;
  check int "no residency after mass cancel" 0 (Sim.pending sim);
  check int "stats agree" 0 (Sim.stats sim).Sim.live;
  check int "all counted cancelled" n (Sim.stats sim).Sim.cancelled;
  Gc.full_major ();
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to n - 1 do if Weak.check weaks i then incr alive done;
  check int "closures released before the deadline" 0 !alive;
  ignore (Sys.opaque_identity (sim, timers))

let test_sim_pool_recycles () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  for i = 1 to 50 do Sim.at sim (Clock.now clock + i) (fun () -> ()) done;
  Sim.run sim;
  let s1 = Sim.stats sim in
  check int "first wave fired" 50 s1.Sim.fired;
  for i = 1 to 50 do Sim.at sim (Clock.now clock + i) (fun () -> ()) done;
  let s2 = Sim.stats sim in
  check int "second wave recycles records" 50
    (s2.Sim.pool_hits - s1.Sim.pool_hits);
  check int "no fresh records" s1.Sim.pool_misses s2.Sim.pool_misses;
  Sim.run sim;
  check int "double cancel counted once" 0
    (let tm = Sim.timer sim in
     Sim.arm sim tm 10 (fun () -> ());
     Sim.cancel sim tm;
     Sim.cancel sim tm;
     (Sim.stats sim).Sim.cancelled - 1)

(* The engine contract, differentially: a random run of schedules,
   timer arms and cancels, and clock advances against a naive
   sorted-list model. Events fire in (deadline, insertion) order
   whenever the clock reaches their deadline, never re-entrantly; an
   action may charge the clock, schedule more work, or arm or cancel
   any timer. Arming is a cancel of the timer's pending event, if any,
   followed by a schedule with a fresh insertion number, whether the
   timer is pending, has fired or was never armed. After every
   operation the fire log (event, clock at firing), [pending], [stats]
   and the clock agree, and so does the next fire time. [Sim] exports
   no peek, so that time is read from a replay of the same prefix: its
   [idle_step] fires the next event, which logs its clock. *)

let sim_timers = 3

type sim_act = Log | Charge_in of int | Sched_now | Sched_after of int
             | Arm_in of int * int           (* timer, delta *)
             | Cancel_in of int              (* timer *)

type sim_op =
  | At of int * sim_act                  (* clock offset: < 0 past, 0 now *)
  | After of int * sim_act
  | Arm of int * int * sim_act           (* timer, delta (< 0 past), action *)
  | Cancel of int                        (* timer: pending, fired or never armed *)
  | Charge of int
  | Skip of int                          (* [skip_to (now + n)], n may be <= 0 *)
  | Idle

module Sim_model = struct
  type t = {
    mutable now : int;
    mutable issued : int;                (* event ids and insertion order *)
    mutable queue : (int * int * sim_act) list;   (* (deadline, id, act) *)
    timers : int array;                  (* each timer's last event id, or -1 *)
    mutable firing : bool;
    mutable fired : int;
    mutable cancelled : int;
    mutable log : (int * int) list;      (* (id, time), newest first *)
  }

  let create () =
    { now = 0; issued = 0; queue = []; timers = Array.make sim_timers (-1);
      firing = false; fired = 0; cancelled = 0; log = [] }

  let add m time act =
    let d = max time m.now and id = m.issued in
    m.issued <- id + 1;
    let rec insert = function
      | ((d', _, _) as e) :: rest when d' <= d -> e :: insert rest
      | rest -> (d, id, act) :: rest in
    m.queue <- insert m.queue;
    id

  let cancel m k =
    let id = m.timers.(k) in
    if List.exists (fun (_, i, _) -> i = id) m.queue then begin
      m.queue <- List.filter (fun (_, i, _) -> i <> id) m.queue;
      m.cancelled <- m.cancelled + 1
    end

  let arm m k delta act =
    cancel m k;
    m.timers.(k) <- add m (m.now + delta) act

  let rec fire_due m =
    if not m.firing then begin
      m.firing <- true;
      let rec loop () =
        match m.queue with
        | (d, id, act) :: rest when d <= m.now ->
          m.queue <- rest;
          m.fired <- m.fired + 1;
          m.log <- (id, m.now) :: m.log;
          run_act m act;
          loop ()
        | _ -> () in
      loop ();
      m.firing <- false
    end

  and run_act m = function
    | Log -> ()
    | Charge_in c -> charge m c
    | Sched_now -> ignore (add m m.now Log)
    | Sched_after d -> ignore (add m (m.now + d) Log)
    | Arm_in (k, d) -> arm m k d Log
    | Cancel_in k -> cancel m k

  and charge m c = if c > 0 then begin m.now <- m.now + c; fire_due m end

  let skip_to m target =
    if target > m.now then begin m.now <- target; fire_due m end

  let next_fire m =
    match m.queue with [] -> None | (d, _, _) :: _ -> Some (max d m.now)

  let apply m = function
    | At (off, act) -> ignore (add m (m.now + off) act)
    | After (d, act) -> ignore (add m (m.now + d) act)
    | Arm (k, d, act) -> arm m k d act
    | Cancel k -> cancel m k
    | Charge c -> charge m c
    | Skip n -> skip_to m (m.now + n)
    | Idle ->
      (match m.queue with
       | [] -> ()
       | (d, _, _) :: _ -> skip_to m d; fire_due m)
end

type sim_real = {
  r_clock : Clock.t;
  r_sim : Sim.t;
  r_timers : Sim.timer array;
  mutable r_issued : int;
  mutable r_log : (int * int) list;
}

let real_fresh () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  { r_clock = clock; r_sim = sim;
    r_timers = Array.init sim_timers (fun _ -> Sim.timer sim);
    r_issued = 0; r_log = [] }

(* The action of the next event scheduled, numbered as the model
   numbers it; [schedule] is [Sim.at sim time] (an [After] or
   [Sched_after] op at now + delta) or [Sim.arm sim timer delta]. *)
let rec real_schedule r act schedule =
  let id = r.r_issued in
  r.r_issued <- id + 1;
  schedule (fun () ->
    r.r_log <- (id, Clock.now r.r_clock) :: r.r_log;
    match act with
    | Log -> ()
    | Charge_in c -> Clock.charge r.r_clock c
    | Sched_now -> real_schedule r Log (Sim.at r.r_sim (Clock.now r.r_clock))
    | Sched_after d ->
      real_schedule r Log (Sim.at r.r_sim (Clock.now r.r_clock + d))
    | Arm_in (k, d) -> real_schedule r Log (Sim.arm r.r_sim r.r_timers.(k) d)
    | Cancel_in k -> Sim.cancel r.r_sim r.r_timers.(k))

let real_apply r = function
  | At (off, act) ->
    real_schedule r act (Sim.at r.r_sim (Clock.now r.r_clock + off))
  | After (d, act) ->
    real_schedule r act (Sim.at r.r_sim (Clock.now r.r_clock + d))
  | Arm (k, d, act) -> real_schedule r act (Sim.arm r.r_sim r.r_timers.(k) d)
  | Cancel k -> Sim.cancel r.r_sim r.r_timers.(k)
  | Charge c -> Clock.charge r.r_clock c
  | Skip n -> Clock.skip_to r.r_clock (Clock.now r.r_clock + n)
  | Idle -> ignore (Sim.idle_step r.r_sim)

let sim_timer_gen = QCheck2.Gen.int_range 0 (sim_timers - 1)

let sim_act_gen =
  QCheck2.Gen.(
    frequency
      [ (4, pure Log);
        (2, map (fun c -> Charge_in c) (int_range 0 300));
        (2, pure Sched_now);
        (1, map (fun d -> Sched_after d) (int_range 0 200));
        (1, map2 (fun k d -> Arm_in (k, d)) sim_timer_gen (int_range (-50) 200));
        (2, map (fun k -> Cancel_in k) sim_timer_gen) ])

let sim_op_gen =
  QCheck2.Gen.(
    frequency
      [ (2, map2 (fun o a -> At (o, a)) (int_range (-300) (-1)) sim_act_gen);
        (2, map (fun a -> At (0, a)) sim_act_gen);
        (3, map2 (fun o a -> At (o, a)) (int_range 1 600) sim_act_gen);
        (2, map2 (fun d a -> After (d, a)) (int_range 0 600) sim_act_gen);
        (2, map2 (fun k a -> Arm (k, 0, a)) sim_timer_gen sim_act_gen);
        (3, map3 (fun k d a -> Arm (k, d, a)) sim_timer_gen (int_range (-300) 600)
              sim_act_gen);
        (2, map (fun k -> Cancel k) sim_timer_gen);
        (2, map (fun c -> Charge c) (int_range 0 300));
        (1, map (fun n -> Skip n) (int_range (-100) 400));
        (2, pure Idle) ])

let prop_sim_matches_model =
  QCheck2.Test.make ~name:"sim agrees with a sorted-list model" ~count:300
    QCheck2.Gen.(list_size (int_range 1 40) sim_op_gen)
    (fun ops ->
      let m = Sim_model.create () and r = real_fresh () in
      let agree () =
        let s = Sim.stats r.r_sim in
        r.r_log = m.Sim_model.log
        && Clock.now r.r_clock = m.Sim_model.now
        && Sim.pending r.r_sim = List.length m.Sim_model.queue
        && s.Sim.live = Sim.pending r.r_sim
        && s.Sim.fired = m.Sim_model.fired
        && s.Sim.cancelled = m.Sim_model.cancelled in
      let next_fire prefix =
        let p = real_fresh () in
        List.iter (real_apply p) prefix;
        let before = List.length p.r_log in
        if Sim.idle_step p.r_sim && List.length p.r_log > before then
          Some (snd (List.nth p.r_log (List.length p.r_log - before - 1)))
        else None in
      let rec go prefix = function
        | [] -> true
        | op :: rest ->
          real_apply r op;
          Sim_model.apply m op;
          let prefix = op :: prefix in
          agree ()
          && next_fire (List.rev prefix) = Sim_model.next_fire m
          && go prefix rest in
      go [] ops
      && begin
        Sim.run r.r_sim;
        while m.Sim_model.queue <> [] do Sim_model.apply m Idle done;
        agree () && Sim.pending r.r_sim = 0 end)

let test_sim_matches_model () =
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 1995 |])
    prop_sim_matches_model

(* ------------------------------------------------------------------ *)
(* Physical memory                                                    *)
(* ------------------------------------------------------------------ *)

let test_phys_mem_rw () =
  (* Words stored across a frame boundary read back as bytes. *)
  let m = fresh () in
  let pa = Addr.page_size - 12 in
  List.iteri (fun i w -> Phys_mem.write_word m.Machine.mem ~pa:(pa + (8 * i)) w)
    [ 0x0706050403020100L; 0x0f0e0d0c0b0a0908L; 0x1716151413121110L ];
  let back = Bytes.create 24 in
  Phys_mem.read_into m.Machine.mem ~pa ~len:24 back ~pos:0;
  check string "roundtrip" (String.init 24 Char.chr) (Bytes.to_string back)

let test_phys_mem_cross_frame () =
  let m = fresh () in
  let pa = Addr.page_size - 4 in          (* straddles frames 0 and 1 *)
  Phys_mem.write_word m.Machine.mem ~pa 0x1122334455667788L;
  check int64 "word across frames" 0x1122334455667788L
    (Phys_mem.read_word m.Machine.mem ~pa)

let test_phys_mem_copy_charges () =
  let m = fresh () in
  let clock = m.Machine.clock in
  let before = Clock.now clock in
  Phys_mem.read_into m.Machine.mem ~pa:0 ~len:8000 (Bytes.create 8000) ~pos:0;
  let spent = Clock.now clock - before in
  check int "copy cost" ((8000 / 8) * Cost.alpha_133.Cost.copy_per_word) spent

let test_phys_mem_bounds () =
  let m = fresh () in
  Alcotest.check_raises "oob"
    (Invalid_argument "Phys_mem: physical range out of bounds")
    (fun () ->
      Phys_mem.read_into m.Machine.mem
        ~pa:(Phys_mem.bytes_total m.Machine.mem - 2) ~len:8 (Bytes.create 8)
        ~pos:0)

(* ------------------------------------------------------------------ *)
(* MMU                                                                *)
(* ------------------------------------------------------------------ *)

let test_mmu_translate () =
  let m = fresh () in
  let mmu = m.Machine.mmu in
  let ctx = Mmu.create_context mmu in
  Mmu.map mmu ctx ~vpn:10 ~pfn:3 ~prot:Addr.prot_read_write;
  (match Mmu.translate mmu ctx ~va:((10 * Addr.page_size) + 24) Mmu.Read with
   | pa -> check int "pa" (Addr.pa_of_page 3 + 24) pa
   | exception Mmu.Fault _ -> Alcotest.fail "unexpected fault");
  (match Mmu.translate mmu ctx ~va:((11 * Addr.page_size)) Mmu.Read with
   | exception Mmu.Fault Mmu.Page_not_present -> ()
   | _ -> Alcotest.fail "expected page-not-present")

let test_mmu_protection () =
  let m = fresh () in
  let mmu = m.Machine.mmu in
  let ctx = Mmu.create_context mmu in
  Mmu.map mmu ctx ~vpn:1 ~pfn:1 ~prot:Addr.prot_read;
  (match Mmu.translate mmu ctx ~va:((1 * Addr.page_size)) Mmu.Write with
   | exception Mmu.Fault Mmu.Protection_violation -> ()
   | _ -> Alcotest.fail "expected protection violation");
  check bool "protect upgrades" true
    (Mmu.protect mmu ctx ~vpn:1 ~prot:Addr.prot_read_write);
  (match Mmu.translate mmu ctx ~va:((1 * Addr.page_size)) Mmu.Write with
   | _ -> ()
   | exception Mmu.Fault _ ->
     Alcotest.fail "write should succeed after protect");
  check bool "protect of unmapped fails" false
    (Mmu.protect mmu ctx ~vpn:77 ~prot:Addr.prot_read)

let test_mmu_ref_mod_bits () =
  let m = fresh () in
  let mmu = m.Machine.mmu in
  let ctx = Mmu.create_context mmu in
  Mmu.map mmu ctx ~vpn:2 ~pfn:2 ~prot:Addr.prot_read_write;
  let pte = Option.get (Mmu.lookup ctx ~vpn:2) in
  ignore (Mmu.translate mmu ctx ~va:((2 * Addr.page_size)) Mmu.Read);
  check bool "not modified after read" false pte.Mmu.modified;
  ignore (Mmu.translate mmu ctx ~va:((2 * Addr.page_size)) Mmu.Write);
  check bool "modified after write" true pte.Mmu.modified

let test_mmu_tlb_counts () =
  let m = fresh () in
  let mmu = m.Machine.mmu in
  let ctx = Mmu.create_context mmu in
  Mmu.map mmu ctx ~vpn:5 ~pfn:5 ~prot:Addr.prot_read;
  let va = (5 * Addr.page_size) in
  let h0, m0 = Mmu.tlb_stats mmu in
  ignore (Mmu.translate mmu ctx ~va Mmu.Read);     (* miss, fill *)
  ignore (Mmu.translate mmu ctx ~va Mmu.Read);     (* hit *)
  let h1, m1 = Mmu.tlb_stats mmu in
  check int "one miss" 1 (m1 - m0);
  check int "one hit" 1 (h1 - h0);
  Mmu.unmap mmu ctx ~vpn:5;
  Mmu.map mmu ctx ~vpn:5 ~pfn:5 ~prot:Addr.prot_read;
  ignore (Mmu.translate mmu ctx ~va Mmu.Read);
  let _, m2 = Mmu.tlb_stats mmu in
  check int "miss after the unmap dropped the entry" 2 (m2 - m0)

let test_mmu_context_isolation () =
  let m = fresh () in
  let mmu = m.Machine.mmu in
  let c1 = Mmu.create_context mmu and c2 = Mmu.create_context mmu in
  Mmu.map mmu c1 ~vpn:9 ~pfn:1 ~prot:Addr.prot_read;
  (match Mmu.translate mmu c2 ~va:((9 * Addr.page_size)) Mmu.Read with
   | exception Mmu.Fault Mmu.Page_not_present -> ()
   | _ -> Alcotest.fail "contexts must be isolated");
  Mmu.destroy_context mmu c1;
  check int "context count" 1 (Mmu.contexts mmu)

(* ------------------------------------------------------------------ *)
(* CPU                                                                *)
(* ------------------------------------------------------------------ *)

let test_cpu_syscall_costs () =
  let m = fresh () in
  let cpu = m.Machine.cpu in
  Cpu.set_trap_handler cpu (function
    | Cpu.Syscall { number; _ } -> number * 2
    | _ -> -1);
  let before = Clock.now m.Machine.clock in
  let r = Cpu.syscall cpu ~number:21 ~args:[||] in
  check int "handler result" 42 r;
  let spent = Clock.now m.Machine.clock - before in
  check int "trap entry+exit charged"
    (Cost.alpha_133.Cost.trap_entry + Cost.alpha_133.Cost.trap_exit) spent

exception Handler_bug

let test_cpu_trap_cost_symmetric_on_raise () =
  (* Regression: when the trap handler raises, the exit-path cycles
     were never charged (and the mode was still restored by the same
     protect), so a faulting trap cost less than a clean one. *)
  let m = fresh () in
  let cpu = m.Machine.cpu in
  Cpu.set_trap_handler cpu (function
    | Cpu.Syscall _ -> raise Handler_bug
    | _ -> -1);
  let before = Clock.now m.Machine.clock in
  (try
     ignore (Cpu.syscall cpu ~number:7 ~args:[||]);
     Alcotest.fail "expected the handler's exception"
   with Handler_bug -> ());
  let spent = Clock.now m.Machine.clock - before in
  check int "entry and exit both charged despite the raise"
    (Cost.alpha_133.Cost.trap_entry + Cost.alpha_133.Cost.trap_exit) spent;
  let ts = Cpu.trap_stats cpu in
  check int "one entry" 1 ts.Cpu.entries;
  check int "one exit" 1 ts.Cpu.exits;
  check int "depth rebalanced" 0 ts.Cpu.depth

let test_cpu_unhandled_trap () =
  let m = fresh () in
  (try
     ignore (Cpu.syscall m.Machine.cpu ~number:1 ~args:[||]);
     Alcotest.fail "expected Unhandled_trap"
   with Cpu.Unhandled_trap (Cpu.Syscall { number = 1; _ }) -> ()
      | _ -> Alcotest.fail "wrong exception")

let test_cpu_fault_resume () =
  (* A store to an unmapped page traps; the handler maps the page; the
     access is retried and succeeds. *)
  let m = fresh () in
  let cpu = m.Machine.cpu and mmu = m.Machine.mmu in
  let ctx = Mmu.create_context mmu in
  Cpu.set_context cpu (Some ctx);
  let faults = ref 0 in
  Cpu.set_trap_handler cpu (function
    | Cpu.Mem_fault { va; fault = Mmu.Page_not_present } ->
      incr faults;
      Mmu.map mmu ctx ~vpn:(Addr.vpn_of_va va) ~pfn:7 ~prot:Addr.prot_read_write;
      0
    | _ -> -1);
  Cpu.store_word cpu ~va:0x4000 99L;
  check int "one fault" 1 !faults;
  check int64 "store landed" 99L (Cpu.load_word cpu ~va:0x4000);
  check int "no more faults" 1 !faults

let test_cpu_unresolved_fault_raises () =
  let m = fresh () in
  let cpu = m.Machine.cpu in
  let ctx = Mmu.create_context m.Machine.mmu in
  Cpu.set_context cpu (Some ctx);
  Cpu.set_trap_handler cpu (fun _ -> 0);  (* never fixes the fault *)
  (try
     ignore (Cpu.load_word cpu ~va:0x9000);
     Alcotest.fail "expected Unhandled_trap"
   with Cpu.Unhandled_trap _ -> ())

let test_cpu_copy_user () =
  let m = fresh () in
  let cpu = m.Machine.cpu and mmu = m.Machine.mmu in
  let ctx = Mmu.create_context mmu in
  Cpu.set_context cpu (Some ctx);
  let faults = ref 0 in
  Cpu.set_trap_handler cpu (function
    | Cpu.Mem_fault { va; fault = Mmu.Page_not_present } ->
      incr faults;
      let vpn = Addr.vpn_of_va va in
      Mmu.map mmu ctx ~vpn ~pfn:vpn ~prot:Addr.prot_read_write;
      0
    | _ -> -1);
  (* Words on either side of a page boundary fault independently. *)
  let va = Addr.page_size - 8 in
  Cpu.store_word cpu ~va 7L;
  Cpu.store_word cpu ~va:(va + 8) 9L;
  check int "one fault per page" 2 !faults;
  check int64 "first page" 7L (Cpu.load_word cpu ~va);
  check int64 "second page" 9L (Cpu.load_word cpu ~va:(va + 8));
  check int "mapped pages no longer fault" 2 !faults

let test_cpu_context_switch_cost () =
  let m = fresh () in
  let cpu = m.Machine.cpu and mmu = m.Machine.mmu in
  let c1 = Mmu.create_context mmu and c2 = Mmu.create_context mmu in
  Cpu.set_context cpu (Some c1);
  let before = Clock.now m.Machine.clock in
  Cpu.set_context cpu (Some c1);          (* same context: free *)
  check int "same context free" before (Clock.now m.Machine.clock);
  Cpu.set_context cpu (Some c2);
  check int "switch charged"
    (before + Cost.alpha_133.Cost.addr_space_switch)
    (Clock.now m.Machine.clock)

(* ------------------------------------------------------------------ *)
(* Interrupts                                                         *)
(* ------------------------------------------------------------------ *)

let test_intr_delivery () =
  let m = fresh () in
  let intr = m.Machine.intr in
  let hits = ref 0 in
  Intr.register intr ~line:5 (fun () -> incr hits);
  Intr.post intr ~line:5;
  check int "delivered" 1 !hits;
  check int "counted" 1 (Intr.delivered intr);
  Intr.post intr ~line:9;                 (* nobody listens *)
  check int "an unhandled line is not delivered" 1 (Intr.delivered intr)

let test_intr_masking () =
  let m = fresh () in
  let intr = m.Machine.intr in
  let log = ref [] in
  Intr.register intr ~line:1 (fun () -> log := `Intr :: !log);
  (* A handler runs masked: a line posted from inside it waits until
     the handler returns. *)
  Intr.register intr ~line:2 (fun () ->
    Intr.post intr ~line:1;
    log := `Critical :: !log);
  Intr.post intr ~line:2;
  check bool "critical ran before interrupt"
    true (!log = [ `Intr; `Critical ]);
  check int "eventually delivered" 2 (Intr.delivered intr)

let test_intr_handler_not_reentered () =
  let m = fresh () in
  let intr = m.Machine.intr in
  let depth = ref 0 and max_depth = ref 0 and reposted = ref false in
  Intr.register intr ~line:2 (fun () ->
    incr depth;
    max_depth := max !max_depth !depth;
    if not !reposted then begin
      reposted := true;
      Intr.post intr ~line:2                     (* re-post from handler *)
    end;
    decr depth);
  Intr.post intr ~line:2;
  check int "no nesting" 1 !max_depth;
  check int "both delivered" 2 (Intr.delivered intr)

(* ------------------------------------------------------------------ *)
(* SMP: wall-vs-work clock, IPIs, TLB shootdown                       *)
(* ------------------------------------------------------------------ *)

let test_clock_parallel_division_and_carry () =
  (* [now] counts wall cycles; charges are CPU-work cycles. With K
     CPUs busy a charge advances the wall by c/K, the remainder banked
     in a carry so no work cycle is ever lost to rounding. *)
  let clock = Clock.create Cost.alpha_133 in
  Clock.set_parallel clock 3;
  Clock.charge clock 10;                  (* 10/3 = 3 wall, carry 1 *)
  check int "ten work cycles at K=3 advance the wall three" 3
    (Clock.now clock);
  Clock.charge clock 2;                   (* 2 + carry 1 = 3 -> +1 *)
  check int "the carry completes a wall cycle" 4 (Clock.now clock);
  Clock.charge clock 1;                   (* banks, advances nothing *)
  check int "sub-cycle work is banked, not lost" 4 (Clock.now clock);
  Clock.set_parallel clock 1;
  Clock.charge clock 5;
  check int "K=1 degenerates to exact addition" 9 (Clock.now clock);
  Alcotest.check_raises "zero CPUs rejected"
    (Invalid_argument "Clock.set_parallel: need at least one CPU")
    (fun () -> Clock.set_parallel clock 0)

let test_clock_parallel_hooks_fire_on_wall_advance_only () =
  let clock = Clock.create Cost.alpha_133 in
  let fired = ref 0 in
  Clock.add_hook clock (fun _ -> incr fired);
  Clock.set_parallel clock 4;
  Clock.charge clock 3;                   (* carry 3, wall unmoved *)
  check int "no hook without wall progress" 0 !fired;
  Clock.charge clock 1;                   (* carry 4 -> +1 wall *)
  check int "hook on the completed wall cycle" 1 !fired

let test_ipi_fifo_order_and_counts () =
  let clock = Clock.create Cost.alpha_133 in
  let intr = Intr.create ~cpus:2 clock in
  check int "routes two CPUs" 2 (Intr.cpus intr);
  let log = ref [] in
  Intr.post_ipi intr ~cpu:1 (fun () -> log := 1 :: !log);
  Intr.post_ipi intr ~cpu:1 (fun () -> log := 2 :: !log);
  Intr.post_ipi intr ~cpu:1 (fun () -> log := 3 :: !log);
  check int "pending on the target" 3 (Intr.ipis_pending intr);
  check int "nothing on cpu 0" 0 (Intr.drain_ipis intr ~cpu:0);
  check int "drain runs all three" 3 (Intr.drain_ipis intr ~cpu:1);
  check (list int) "delivered in post order" [ 1; 2; 3 ] (List.rev !log);
  check int "no inbox left loaded" 0 (Intr.ipis_pending intr);
  check int "an empty drain delivers nothing" 0 (Intr.drain_ipis intr ~cpu:1);
  (* An action posted by an action being delivered lands in the same
     drain — delivery at the next instruction boundary, not the next
     scheduling epoch. *)
  Intr.post_ipi intr ~cpu:0 (fun () ->
    Intr.post_ipi intr ~cpu:0 (fun () -> log := 9 :: !log));
  check int "chained IPI drains in the same call" 2
    (Intr.drain_ipis intr ~cpu:0);
  check bool "chained action ran" true (List.mem 9 !log)

let test_ipi_broadcast_sync_hits_every_other_cpu () =
  let clock = Clock.create Cost.alpha_133 in
  let intr = Intr.create ~cpus:4 clock in
  let hit = ref [] in
  let n = Intr.broadcast_sync intr ~from:2 (fun ~cpu -> hit := cpu :: !hit) in
  check int "three targets" 3 n;
  check (list int) "every CPU but the initiator, once" [ 0; 1; 3 ]
    (List.sort compare !hit);
  check int "synchronous: nothing left pending" 0 (Intr.ipis_pending intr)

let test_shootdown_completes_before_unmap_returns () =
  let m = Machine.create ~name:"smp" ~mem_mb:4 ~cpus:4 () in
  let mmu = m.Machine.mmu in
  let ctx = Mmu.create_context mmu in
  Mmu.map mmu ctx ~vpn:7 ~pfn:3 ~prot:Addr.prot_read_write;
  check (pair int int) "mapping alone interrupts nobody"
    (0, 0) (Machine.shootdown_stats m);
  Mmu.unmap mmu ctx ~vpn:7;
  (* The stats are bumped by the synchronous broadcast inside unmap,
     so observing them here proves every remote CPU flushed and acked
     before unmap returned. *)
  check (pair int int) "one broadcast, every remote CPU acked" (1, 3)
    (Machine.shootdown_stats m);
  check int "no flush IPI still in flight" 0 (Intr.ipis_pending m.Machine.intr)

let test_protect_narrowing_fires_widening_skips () =
  let m = Machine.create ~name:"smp" ~mem_mb:4 ~cpus:2 () in
  let mmu = m.Machine.mmu in
  let ctx = Mmu.create_context mmu in
  Mmu.map mmu ctx ~vpn:9 ~pfn:4 ~prot:Addr.prot_read;
  ignore (Mmu.protect mmu ctx ~vpn:9 ~prot:Addr.prot_read_write);
  (* A stale remote entry with narrower rights merely re-faults, so
     widening keeps the Table 4 lazy-protect economics... *)
  check (pair int int) "widening skips the shootdown" (0, 0)
    (Machine.shootdown_stats m);
  ignore (Mmu.protect mmu ctx ~vpn:9 ~prot:Addr.prot_read);
  (* ...but a stale entry with wider rights is a protection hole. *)
  check (pair int int) "narrowing interrupts the other CPU" (1, 1)
    (Machine.shootdown_stats m);
  let m1 = Machine.create ~name:"up" ~mem_mb:4 ~cpus:1 () in
  let ctx1 = Mmu.create_context m1.Machine.mmu in
  Mmu.map m1.Machine.mmu ctx1 ~vpn:9 ~pfn:4 ~prot:Addr.prot_read_write;
  Mmu.unmap m1.Machine.mmu ctx1 ~vpn:9;
  check (pair int int) "a uniprocessor never broadcasts" (0, 0)
    (Machine.shootdown_stats m1)

(* ------------------------------------------------------------------ *)
(* Devices                                                            *)
(* ------------------------------------------------------------------ *)

let test_console_io () =
  let m = fresh () in
  let console = m.Machine.console in
  let t0 = Clock.now m.Machine.clock in
  Console_dev.puts console "Intruder Alert";
  check string "output" "Intruder Alert" (Console_dev.output console);
  check bool "device writes are charged" true (Clock.now m.Machine.clock > t0)

let test_disk_roundtrip () =
  let m = fresh () in
  let disk = Machine.add_disk m in
  let completed = ref [] in
  Intr.register m.Machine.intr ~line:(Disk_dev.line disk) (fun () ->
    completed := Disk_dev.take_completion disk :: !completed);
  let payload = Bytes.make Disk_dev.block_size 'd' in
  Disk_dev.submit disk ~write:true ~block:10 payload;
  Sim.run m.Machine.sim;
  (* The read lands in the reader's buffer. *)
  let buf = Bytes.make Disk_dev.block_size '-' in
  Disk_dev.submit disk ~write:false ~block:10 buf;
  Sim.run m.Machine.sim;
  check (list int) "both requests completed" [ 10; 10 ] !completed;
  check bytes "disk data" payload buf;
  check int "nothing more to collect" (-1) (Disk_dev.take_completion disk);
  check int "one read" 1 (Disk_dev.reads disk);
  check int "one write" 1 (Disk_dev.writes disk)

let test_disk_latency_model () =
  let m = fresh () in
  let disk = Machine.add_disk m in
  let buf = Bytes.create Disk_dev.block_size in
  Disk_dev.submit disk ~write:false ~block:100 buf;
  Sim.run m.Machine.sim;
  let first = Clock.now_us m.Machine.clock in
  check bool "random access costs ms" true (first > 10_000.);
  (* Sequential follow-up skips the seek. *)
  Disk_dev.submit disk ~write:false ~block:101 buf;
  Sim.run m.Machine.sim;
  let second = Clock.now_us m.Machine.clock -. first in
  check bool "sequential is cheap" true (second < 1_000.)

let test_disk_fifo_queue () =
  let m = fresh () in
  let disk = Machine.add_disk m in
  let order = ref [] in
  Intr.register m.Machine.intr ~line:(Disk_dev.line disk) (fun () ->
    order := Disk_dev.take_completion disk :: !order);
  let buf = Bytes.create Disk_dev.block_size in
  Disk_dev.submit disk ~write:false ~block:5 buf;
  Disk_dev.submit disk ~write:false ~block:500 buf;
  Disk_dev.submit disk ~write:false ~block:50 buf;
  check int "queued" 3 (Disk_dev.in_flight disk);
  Sim.run m.Machine.sim;
  check (list int) "fifo completion" [ 5; 500; 50 ] (List.rev !order)

let two_hosts kind =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let a = Machine.create_on sim ~mem_mb:4 ~name:"a" ()
  and b = Machine.create_on sim ~mem_mb:4 ~name:"b" () in
  let nic_a, nic_b = Machine.connect a b ~kind () in
  (sim, a, b, nic_a, nic_b)

let test_nic_delivery () =
  let sim, a, b, nic_a, nic_b = two_hosts Nic.Lance in
  ignore a;
  let got = ref None in
  Intr.register b.Machine.intr ~line:(Nic.line nic_b) (fun () ->
    let len = Nic.rx_length nic_b in
    got := Some (Bytes.sub_string (Nic.receive nic_b) 0 len));
  let frame = Bytes.of_string "ping" in
  check bool "tx ok" true (Nic.transmit nic_a ~off:0 ~len:4 frame);
  Sim.run sim;
  (match !got with
   | Some f -> check string "payload" "ping" f
   | None -> Alcotest.fail "frame not delivered")

let test_nic_mtu () =
  let _, _, _, nic_a, _ = two_hosts Nic.Lance in
  check bool "oversize rejected" false
    (Nic.transmit nic_a ~off:0 ~len:4000 (Bytes.create 4000))

let test_nic_pio_charges_cpu () =
  (* FORE ATM moves data with the CPU; Lance does not. *)
  let sim_p, a_p, _, nic_p, _ = two_hosts Nic.Fore_atm in
  ignore sim_p;
  let frame = Bytes.create 8000 in
  let before = Clock.now a_p.Machine.clock in
  ignore (Nic.transmit nic_p ~off:0 ~len:8000 frame);
  let pio_cost = Clock.now a_p.Machine.clock - before in
  check bool "PIO is expensive" true (pio_cost > 100_000);
  let sim_d, a_d, _, nic_d, _ = two_hosts Nic.T3 in
  ignore sim_d;
  let before = Clock.now a_d.Machine.clock in
  ignore (Nic.transmit nic_d ~off:0 ~len:8000 frame);
  let dma_cost = Clock.now a_d.Machine.clock - before in
  check bool "DMA is cheap" true (dma_cost < 1_000)

let test_link_serialization () =
  (* 1500 bytes at 10 Mb/s is over a millisecond of wire time. *)
  let sim, _, b, nic_a, nic_b = two_hosts Nic.Lance in
  let arrival = ref 0. in
  Intr.register b.Machine.intr ~line:(Nic.line nic_b) (fun () ->
    ignore (Nic.receive nic_b);
    arrival := Clock.now_us b.Machine.clock);
  ignore (Nic.transmit nic_a ~off:0 ~len:1500 (Bytes.create 1500));
  Sim.run sim;
  check bool "wire time over 1 ms" true (!arrival > 1_200.);
  check bool "wire time under 2 ms" true (!arrival < 2_000.)

let test_cost_conversions () =
  let c = Cost.alpha_133 in
  check int "1 us" 133 (Cost.us_to_cycles c 1.0);
  check int "rounds" 67 (Cost.us_to_cycles c 0.5);
  check (float 0.0001) "inverse" 1.0 (Cost.cycles_to_us c 133);
  check int "page rounding" 2 (Addr.round_up_pages (Addr.page_size + 1));
  check int "zero bytes" 0 (Addr.round_up_pages 0)

let test_machine_connect_requires_shared_sim () =
  let m1 = Machine.create ~name:"one" ~mem_mb:4 () in
  let m2 = Machine.create ~name:"two" ~mem_mb:4 () in
  check_raises "different sims rejected"
    (Invalid_argument "Machine.connect: machines must share a simulation")
    (fun () -> ignore (Machine.connect m1 m2 ~kind:Nic.Lance ()))

let test_link_loss_validation () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let link = Link.create sim ~mbps:10. () in
  check_raises "negative rejected" (Invalid_argument "Link.set_loss")
    (fun () -> Link.set_loss link ~every:(-1));
  Link.set_loss link ~every:0             (* lossless is fine *)

let test_idle_accounting () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  Clock.charge clock 100;                 (* busy *)
  Sim.at sim (Clock.now clock + 500) (fun () -> ());
  Sim.run sim;                            (* idles to the deadline *)
  check int "idle counted" 500 (Clock.idle_cycles clock);
  check int "busy = now - idle" 100 (Clock.now clock - Clock.idle_cycles clock)

let test_machine_isolated_clocks () =
  let m1 = Machine.create ~name:"one" ~mem_mb:4 () in
  let m2 = Machine.create ~name:"two" ~mem_mb:4 () in
  Clock.charge m1.Machine.clock 500;
  check int "m2 unaffected" 0 (Clock.now m2.Machine.clock)

(* ------------------------------------------------------------------ *)
(* Hot paths: allocation and exception safety                         *)
(* ------------------------------------------------------------------ *)

module Dispatcher = Spin_core.Dispatcher
module Sched = Spin_sched.Sched
module Strand = Spin_sched.Strand
module Kthread = Spin_sched.Kthread

(* Minor words allocated by [n] calls of [f]. Native code keeps both
   readings unboxed, so the measurement itself allocates nothing. *)
let minor_words_over n f =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do f () done;
  Gc.minor_words () -. w0

let test_charge_allocates_nothing () =
  (* Every modeled cost goes through [Clock.charge] and, from there,
     every clock hook: the Sim's timer pass and the Sched's quantum
     check. With nothing due, none of it may touch the host heap. *)
  let m = fresh () in
  let clock = m.Machine.clock in
  ignore (Sched.create m.Machine.sim (Dispatcher.create clock));
  Sim.at m.Machine.sim (Clock.now clock + 1_000_000_000) (fun () -> ());
  let charge () = Clock.charge clock 1 in
  check (float 0.) "minor words over 10,000 charges" 0.
    (minor_words_over 10_000 charge)

let test_direct_raise_allocates_nothing () =
  let d = Dispatcher.create (Clock.create Cost.alpha_133) in
  let e = Dispatcher.declare d ~name:"Ev" ~owner:"M" (fun x -> x + 1) in
  let raise_one () = ignore (Dispatcher.raise_event e 41) in
  check (float 0.) "minor words over 10,000 raises" 0.
    (minor_words_over 10_000 raise_one);
  check int "every raise took the fast path" 10_000
    (Dispatcher.stats e).Dispatcher.fast_path

module Ebc = Spin_core.Ebc
module Handler_spec = Dispatcher.Handler_spec

let int_layout ?payload () =
  Ebc.layout ~name:"Ev" ~fields:[ ("x", Spin_core.Ty.Int) ]
    ~read:(fun x _ -> x) ?payload ()

let test_general_raise_allocates_nothing () =
  (* A guarded handler and an indexed one force the General plan; the
     primary is removed so that only they can run. The indexed
     handler's predicate is verified, so it runs compiled. *)
  let d = Dispatcher.create (Clock.create Cost.alpha_133) in
  let e =
    Dispatcher.declare d ~name:"Ev" ~owner:"M" ~layout:(int_layout ())
      ~combine:( + ) ~index:(fun x -> x land 1)
      ~allow_remove_primary:(fun ~requester:_ -> true) (fun x -> x) in
  ignore (Dispatcher.remove_primary e ~requester:"test");
  ignore
    (Dispatcher.ok_exn ~site:"test"
       (Dispatcher.install e ~installer:"g"
          ~spec:(Handler_spec.guarded (fun x -> x >= 10)) (fun x -> x)));
  ignore
    (Dispatcher.ok_exn ~site:"test"
       (Dispatcher.install e ~installer:"i"
          ~spec:{ (Handler_spec.verified (Ebc.match_field ~slot:0 12)) with
                  Handler_spec.index_key = Some 0 }
          (fun x -> x)));
  check int "one indexed handler" 1 (Dispatcher.indexed_active e);
  let per_raise x =
    minor_words_over 10_000 (fun () ->
      ignore (Dispatcher.raise_default e (-1) x))
    /. 10_000. in
  (* 1 hits no index slot, 2 finds the slot; both reject everywhere, so
     the fallback answers. *)
  check int "no result" (-1) (Dispatcher.raise_default e (-1) 1);
  check (float 0.) "nothing runs, no slot" 0. (per_raise 1);
  check (float 0.) "nothing runs, slot found" 0. (per_raise 2);
  (* k handlers run: their results fold in place, with no cell, no
     reversed copy and no exception allocated. *)
  check (float 0.) "one handler runs" 0. (per_raise 11);
  check (float 0.) "two handlers run" 0. (per_raise 12);
  check int "results combined" 24 (Dispatcher.raise_event e 12);
  check int "nothing took the fast path" 0
    (Dispatcher.stats e).Dispatcher.fast_path

let test_compiled_predicate_allocates_nothing () =
  let compile layout prog =
    match Ebc.verify ~layout prog with
    | Ok v -> Ebc.compile v
    | Error err -> fail (Ebc.error_to_string err) in
  let field = compile (int_layout ()) (Ebc.match_field ~slot:0 7) in
  (* A payload read in place: the projections return the buffer, the
     offset and the length, and build no triple. *)
  let buf = Bytes.of_string "GET /index.html" in
  let get =
    compile
      (int_layout
         ~payload:{ Ebc.p_buf = (fun _ -> buf); p_off = (fun _ -> 0);
                    p_len = (fun _ -> Bytes.length buf) } ())
      (Ebc.match_string "GET /index.html") in
  check bool "field match" true (field 7);
  check bool "field mismatch" false (field 8);
  check bool "payload match" true (get 0);
  check (float 0.) "minor words over 10,000 field runs" 0.
    (minor_words_over 10_000 (fun () -> ignore (field 7)));
  check (float 0.) "minor words over 10,000 payload runs" 0.
    (minor_words_over 10_000 (fun () -> ignore (get 0)))

(* What one suspension of a strand costs the host heap: the runtime's
   continuation alone, 2 words. The coroutine's [Parked] cell is
   refilled in place, every coroutine shares one handler, and the
   run-queue node a requeue links, the option a dispatch pops and the
   scheduler's [current] are the strand's own, built once. *)
let suspend_words = 2.

(* Words per iteration of [body] in a strand of a fresh one-CPU
   scheduler, read by the strand itself into a float array (no boxing)
   around [n] iterations, past a first hundred that build the
   coroutine's [Parked] cell. [others] spawns the strands it runs beside. *)
let strand_words ?(others = fun _ -> ()) n body =
  let m = Machine.create ~cpus:1 ~name:"test" ~mem_mb:4 () in
  let sched = Sched.create m.Machine.sim (Dispatcher.create m.Machine.clock) in
  let marks = Array.make 2 0. in
  ignore
    (Sched.spawn sched ~name:"measured" (fun () ->
       for i = 1 to n + 100 do
         if i = 101 then marks.(0) <- Gc.minor_words ();
         body sched
       done;
       marks.(1) <- Gc.minor_words ()));
  others sched;
  Sched.run sched;
  (marks.(1) -. marks.(0)) /. float_of_int n

let test_strand_yield_words () =
  check (float 0.) "words per yield and resume" suspend_words
    (strand_words 10_000 Sched.yield)

let test_strand_block_words () =
  (* The measured strand blocks; a peer unblocks it and yields. Each
     round suspends both, and the peer's unblock and both requeues
     link nodes the strands own. *)
  let blocked = ref None in
  let peer sched =
    ignore
      (Sched.spawn sched ~name:"peer" (fun () ->
         let rec loop () =
           match !blocked with
           | Some s when s.Strand.state = Strand.Dead -> ()
           | Some s ->
             if s.Strand.state = Strand.Blocked then Sched.unblock sched s;
             Sched.yield sched;
             loop ()
           | None -> Sched.yield sched; loop () in
         loop ())) in
  let body sched =
    (match !blocked with
     | None -> blocked := Some (Sched.self sched)
     | Some _ -> ());
    Sched.block_current sched in
  check (float 0.) "words per block, unblock and re-enqueue"
    (2. *. suspend_words) (strand_words ~others:peer 10_000 body)

(* A timed sleep arms the strand's own timer, built with its wake
   action at the first sleep: the suspension is all a round allocates. *)
let test_sleep_words () =
  check (float 0.) "words per timed sleep" suspend_words
    (strand_words 10_000 (fun sched -> Sched.sleep_us sched 1.))

(* One [Kthread] condition exchange, the Table 3 ping-pong: each thread
   takes its turn, signals its partner and waits on the condition. The
   two waits suspend, and link the threads' own wait nodes. *)
let test_condition_exchange_words () =
  let mu = Kthread.Mutex.create () and cond = Kthread.Condition.create () in
  let turn = ref 0 in
  let player me sched =
    Kthread.Mutex.lock sched mu;
    while !turn <> me do Kthread.Condition.wait sched mu cond done;
    turn := 1 - me;
    Kthread.Condition.signal sched cond;
    Kthread.Mutex.unlock sched mu in
  let n = 10_000 in
  let partner sched =
    ignore (Sched.spawn sched ~name:"partner" (fun () ->
      for _ = 1 to n + 100 do player 1 sched done)) in
  check (float 0.) "words per exchange" (2. *. suspend_words)
    (strand_words ~others:partner n (player 0))

(* A strand's whole life: spawn, a first run that yields, and a resume
   that returns. The spawn builds the strand's record (18 words) and
   its [me] option (2), its run-queue node (8) and the option holding
   it (2), and its coroutine (3), the coroutine's [Created] body (2)
   and the option holding it (2); no joiners list, which the first
   [Kthread.join] builds (the strand starts with the shared empty
   [Strand.no_joiners]). The first run makes the runtime's 5-word
   effect closure for the new fiber; the first suspension its
   continuation (2) and the coroutine's [Parked] cell (2), refilled by
   every later one. The capability is never asked for, so never
   minted, and the exit allocates nothing. *)
let strand_life_words = 37. +. 5. +. 4.

let test_strand_life_words () =
  let m = Machine.create ~cpus:1 ~name:"test" ~mem_mb:4 () in
  let sched = Sched.create m.Machine.sim (Dispatcher.create m.Machine.clock) in
  let body () = Sched.yield sched in
  (* [Sched.step], not [Sched.run], whose loop is a closure. *)
  let life () =
    ignore (Sched.spawn sched ~name:"life" body);
    ignore (Sched.step sched);
    ignore (Sched.step sched) in
  for _ = 1 to 100 do life () done;
  check (float 0.) "words per strand life" strand_life_words
    (minor_words_over 1_000 life /. 1_000.);
  check int "every strand completed" 1_100 (Sched.stats sched).Sched.completed

(* A wakeup that crosses CPUs: the unblock on CPU 0 marks the strand,
   queues it on CPU 1's wakeup ring and posts that CPU's one wakeup
   action; the delivery enqueues it there. *)
let test_ipi_wakeup_words () =
  let m = Machine.create ~cpus:2 ~name:"test" ~mem_mb:4 () in
  let sched =
    Sched.create ~intr:m.Machine.intr m.Machine.sim
      (Dispatcher.create m.Machine.clock) in
  let s = Sched.spawn sched ~name:"pinned" (fun () -> ()) in
  Sched.set_affinity sched s (Some 1);
  Sched.block sched s;
  let round () =
    Sched.unblock sched s;
    ignore (Intr.drain_ipis m.Machine.intr ~cpu:1);
    Sched.block sched s in
  for _ = 1 to 100 do round () done;
  check (float 0.) "words over 10,000 IPI wakeups" 0.
    (minor_words_over 10_000 round);
  check int "each travelled as an IPI" 10_100
    (Sched.stats sched).Sched.ipi_wakeups;
  check int "none left in flight" 0 (Sched.pending_ipi_count sched)

(* The VM paths of Table 4. A TLB hit allocates nothing, and a fill
   only its entry: the key (3 words), its table bucket (4) and its FIFO
   cell (3). Lookups and drops go through one reused probe key. *)
let tlb_fill_words = 10.

let test_mmu_translate_words () =
  let m = fresh () in
  let mmu = m.Machine.mmu in
  let ctx = Mmu.create_context mmu in
  Mmu.map mmu ctx ~vpn:5 ~pfn:5 ~prot:Addr.prot_read_write;
  let va = Sys.opaque_identity ((5 * Addr.page_size) + 8) in
  let prot = Sys.opaque_identity Addr.prot_read_write in
  ignore (Mmu.translate mmu ctx ~va Mmu.Read);
  check (float 0.) "minor words over 10,000 hits" 0.
    (minor_words_over 10_000 (fun () ->
       ignore (Mmu.translate mmu ctx ~va Mmu.Write)));
  (* The protection change drops the entry; the next access refills. *)
  let h0, m0 = Mmu.tlb_stats mmu in
  check (float 0.) "words per drop and fill" tlb_fill_words
    (minor_words_over 1_000 (fun () ->
       ignore (Mmu.protect mmu ctx ~vpn:5 ~prot);
       ignore (Mmu.translate mmu ctx ~va Mmu.Read))
     /. 1_000.);
  let h1, m1 = Mmu.tlb_stats mmu in
  check (pair int int) "every access missed" (0, 1_000) (h1 - h0, m1 - m0)

let test_protect_words () =
  let k = Spin.Kernel.boot ~cpus:1 ~name:"test" () in
  let vm = Spin_vm.Vm_ext.create k.Spin.Kernel.vm ~app:"test" ~pages:128 in
  let ro = Sys.opaque_identity Addr.prot_read
  and rw = Sys.opaque_identity Addr.prot_read_write in
  check (float 0.) "minor words over 1,000 protections of 100 pages" 0.
    (minor_words_over 500 (fun () ->
       Spin_vm.Vm_ext.protect vm ~first:0 ~count:100 ro;
       Spin_vm.Vm_ext.protect vm ~first:0 ~count:100 rw))

(* One Appel1 fault (Table 4): the store misses the TLB (its page's
   entry went when the previous fault protected it) and traps, the
   handler unprotects the page and protects the next, and the retried
   store misses again. The CPU's trap record (3 words), the fault
   event's record (3) and the two TLB fills are all it allocates:
   neither the fault's trace marks nor its context lookup allocate
   with tracing off. *)
let appel1_fault_words = 3. +. 3. +. (2. *. tlb_fill_words)

let test_appel1_fault_words () =
  let k = Spin.Kernel.boot ~cpus:1 ~name:"test" () in
  let vm = Spin_vm.Vm_ext.create k.Spin.Kernel.vm ~app:"test" ~pages:128 in
  Spin_vm.Vm_ext.activate vm;
  let ro = Sys.opaque_identity Addr.prot_read
  and rw = Sys.opaque_identity Addr.prot_read_write in
  let next page = (page + 1) mod 128 in
  Spin_vm.Vm_ext.on_protection_fault vm (fun page ->
    Spin_vm.Vm_ext.protect vm ~first:page ~count:1 rw;
    Spin_vm.Vm_ext.protect vm ~first:(next page) ~count:1 ro);
  Spin_vm.Vm_ext.protect vm ~first:0 ~count:1 ro;
  let page = ref 0 and v = Sys.opaque_identity 1L in
  let fault () =
    Spin_vm.Vm_ext.write vm ~page:!page v;
    page := next !page in
  (* A first lap over the arena warms every page's TLB entry slot. *)
  for _ = 1 to 128 do fault () done;
  let faults0 = (Spin_vm.Translation.stats k.Spin.Kernel.vm.Spin_vm.Vm.trans)
                  .Spin_vm.Translation.faults_protection in
  check (float 0.) "words per fault" appel1_fault_words
    (minor_words_over 1_000 fault /. 1_000.);
  check int "every store faulted" 1_000
    ((Spin_vm.Translation.stats k.Spin.Kernel.vm.Spin_vm.Vm.trans)
       .Spin_vm.Translation.faults_protection - faults0)

(* A one-shot event on a warm engine: a pooled record takes the
   action, and nothing comes back to the caller. *)
let test_sim_at_words () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let n = 1_000 and nop () = () in
  let schedule () = Sim.at sim (Clock.now clock + 10) nop in
  for _ = 1 to n do schedule () done;
  Sim.run sim;                            (* the pool now holds [n] records *)
  check (float 0.) "words per one-shot event" 0.
    (minor_words_over n schedule /. float_of_int n)

(* The frame path: a device copy per transmitted frame, into a frame
   buffer the link recycles, a view per received one, and nothing
   else. *)

(* Words of a fresh [Bytes.t] of [len] bytes: header, data, padding. *)
let bytes_words len = float_of_int (1 + ((len + 8) / 8))

(* Words of one of a T3 link's frame buffers: the device's MTU plus
   the 48-byte link-level allowance. *)
let t3_buffer_words = bytes_words (1500 + 48)

(* Frames a NIC's receive ring holds before it drops. *)
let rx_ring_size = 64

(* The link's scheduled delivery: nothing. The frame waits in its
   direction's in-flight ring in place, the delivery event returns no
   handle, its action is built once per direction and the wire time
   stays unboxed. *)
let link_event_words = 0.

let test_nic_transmit_words () =
  let sim, a, b, nic_a, _ = two_hosts Nic.T3 in
  (* A frame inside a larger buffer, at an offset and length the
     compiler cannot see, as a driver's are. *)
  let off = Sys.opaque_identity 18 and len = Sys.opaque_identity 1000 in
  let buf = Bytes.create (off + len) and n = 1_000 in
  let send nic () = ignore (Nic.transmit nic ~off ~len buf) in
  (* Deliver a first round into a ring nobody drains, so the measured
     round reuses the engine's pooled event records. The ring keeps
     64 frames and drops the rest, whose buffers go back to the
     link's free list. *)
  for _ = 1 to n do send nic_a () done;
  Sim.run sim;
  check (float 0.) "words over 936 sends: each copy lands in a free buffer"
    (float_of_int (n - rx_ring_size) *. link_event_words)
    (minor_words_over (n - rx_ring_size) (send nic_a));
  Sim.run sim;
  (* A second link on the same engine has no free buffer yet: each
     copy takes a fresh one, as long as the device's largest frame. *)
  let nic_c, _ = Machine.connect a b ~kind:Nic.T3 () in
  check (float 0.) "words over 16 sends on a new link: a device buffer each"
    (16. *. (t3_buffer_words +. link_event_words))
    (minor_words_over 16 (send nic_c))

(* A warm pair, a driver that hands each frame back as soon as it is
   received: every frame's copy lands in a buffer an earlier frame
   used, and neither [Nic.transmit], the link nor the receive ring
   allocates. *)
let test_frame_recycling_words () =
  let sim, _, b, nic_a, nic_b = two_hosts Nic.T3 in
  let received = ref 0 in
  Intr.register b.Machine.intr ~line:(Nic.line nic_b) (fun () ->
    while Nic.rx_pending nic_b do
      received := !received + Nic.rx_length nic_b;
      Nic.release nic_b (Nic.receive nic_b)
    done);
  let len = Sys.opaque_identity 1000 in
  let buf = Bytes.create len in
  let frame () =
    ignore (Nic.transmit nic_a ~off:0 ~len buf);
    Sim.run sim in
  (* The first frames warm the engine's pools and the free list. *)
  for _ = 1 to 16 do frame () done;
  check (float 0.) "words over 10,000 frames" 0.
    (minor_words_over 10_000 frame);
  check int "every frame received" (10_016 * len) !received

let test_intr_deliver_allocates_nothing () =
  let m = fresh () in
  let intr = m.Machine.intr in
  Intr.register intr ~line:5 (fun () -> ());
  check (float 0.) "minor words over 10,000 deliveries" 0.
    (minor_words_over 10_000 (fun () -> Intr.post intr ~line:5));
  check int "every post delivered" 10_000 (Intr.delivered intr)

module Netif = Spin_net.Netif

let test_netif_rx_words () =
  List.iter
    (fun k ->
      let sim, _, b, nic_a, nic_b = two_hosts Nic.T3 in
      let d = Dispatcher.create b.Machine.clock in
      let sched = Sched.create ~intr:b.Machine.intr sim d in
      let nif = Netif.create b sched d nic_b ~name:"T3" in
      (* No handler on the line yet: the frames wait in the ring. The
         shard queue's initial room holds all 32, so it never grows
         here. *)
      for _ = 1 to k do
        ignore (Nic.transmit nic_a ~off:0 ~len:64 (Bytes.create 64))
      done;
      Sim.run sim;
      (* The protocol strand starts runnable, so the wakeup is free. *)
      Netif.start nif;
      let words =
        minor_words_over 1 (fun () ->
          Intr.post b.Machine.intr ~line:(Nic.line nic_b)) in
      let view = 4 in
      check (float 0.)
        (Printf.sprintf "draining %d frames: a view each" k)
        (float_of_int (k * view)) words)
    [ 1; 8; 32 ]

module Host = Spin_net.Host
module Tcp = Spin_net.Tcp
module Ip = Spin_net.Ip

(* The install path keeps what it allocates. Verifying a loop-free
   program builds the verifier's state, one 6-field record (7 words)
   and one [Bytes] of 17-byte rows, one per pc and one for the end, and
   keeps its result: the [Ok] (2), the verified record (5), the
   certificate (2) and the program's private copy. *)
let verify_words n =
  7. +. bytes_words ((n + 1) * 17) +. 2. +. 5. +. 2. +. float_of_int (n + 1)

let test_verify_match_field_words () =
  let layout = int_layout () in
  let prog = Ebc.match_field ~slot:0 7 in
  let verify () = ignore (Sys.opaque_identity (Ebc.verify ~layout prog)) in
  check (float 0.) "words per verify of match_field" (verify_words 4)
    (minor_words_over 1 verify)

(* [match_string "r05"] fills its 26-instruction array (27 words) in
   place: the length's [Ldi] (3 words) and each character's [Ldb] and
   [Ldi] (3 each) are its only other blocks, the rest are constants. *)
let test_match_string_words () =
  let layout =
    int_layout
      ~payload:{ Ebc.p_buf = (fun _ -> Bytes.empty); p_off = (fun _ -> 0);
                 p_len = (fun _ -> 0) } () in
  let path = Sys.opaque_identity "r05" in
  let build () = ignore (Sys.opaque_identity (Ebc.match_string path)) in
  check (float 0.) "words per build" (27. +. 3. +. (3. *. 6.))
    (minor_words_over 1 build);
  let prog = Ebc.match_string path in
  check int "instructions" 26 (Array.length prog);
  let verify () = ignore (Sys.opaque_identity (Ebc.verify ~layout prog)) in
  check (float 0.) "words per verify" (verify_words 26)
    (minor_words_over 1 verify)

(* A hot swap's registry walks: [gate_installer] closes the events an
   installer handles and [uninstall_installer] evicts its handlers.
   They allocate the returned names (3 words each) and, per handler
   evicted, what its event keeps: the rebuilt handler list (here the
   primary alone, 3 words) and plan (2). Events the installer never
   touched cost nothing. *)
let test_swap_sweep_words () =
  let d = Dispatcher.create (Clock.create Cost.alpha_133) in
  let events =
    Array.init 6 (fun i ->
      Dispatcher.declare d ~name:(Printf.sprintf "Ev%d" i) ~owner:"M"
        (fun x -> x)) in
  let install i installer =
    ignore
      (Dispatcher.ok_exn ~site:"test"
         (Dispatcher.install events.(i) ~installer (fun x -> x))) in
  install 1 "ext";
  install 2 "other";
  install 4 "ext";
  install 4 "other";
  let installer = Sys.opaque_identity "ext" in
  let gated = ref [] and swept = ref 0 in
  let sweep () =
    gated := Dispatcher.gate_installer d ~installer;
    swept := Dispatcher.uninstall_installer d ~installer in
  let words = minor_words_over 1 sweep in
  check (list string) "gated" [ "Ev4"; "Ev1" ] !gated;
  check int "swept" 2 !swept;
  check (float 0.) "words per sweep" ((2. *. 3.) +. (2. *. (3. +. 2.))) words

(* Minor words a sender allocates beyond the NIC's frame copies to put
   8 full-MSS segments on the wire: the send's run record, 6 words, and
   nothing per segment. A segment's sequence number, position and
   length are computed from its run, and it goes out in a frame the
   engine re-aims at it. The link queues the frames in place. Header
   pushes and IP add nothing per segment, and the retransmit timer is
   the connection's own, armed in place. The send buffer itself (8 ×
   1,072 bytes) is over the minor heap's block limit and goes straight
   to the major heap. *)
let tcp_send_words = 6.

let test_tcp_send_words () =
  let sim = Sim.create (Clock.create Cost.alpha_133) in
  let a = Host.create sim ~name:"a" ~addr:(Ip.addr_of_quad 10 0 0 1)
  and b = Host.create sim ~name:"b" ~addr:(Ip.addr_of_quad 10 0 0 2) in
  ignore (Host.wire a b ~kind:Nic.Lance);
  let got = Buffer.create 4096 in
  Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun c ->
    Tcp.on_receive c (Buffer.add_bytes got));
  let k = 8 and mss = 1024 in
  let data = Bytes.init (k * mss) (fun i -> Char.chr (i mod 251)) in
  let marks = Array.make 2 0. in
  ignore (Sched.spawn a.Host.sched ~name:"sender" (fun () ->
    match Tcp.connect a.Host.tcp ~dst:b.Host.addr ~dst_port:80 with
    | None -> fail "no connection"
    | Some c ->
      (* The first transfer warms the heap and the engine's pools. On
         a 10 Mb/s wire the first frame lands after the eighth is
         sent, so the measured send sees none of the receiver. *)
      Tcp.send a.Host.tcp c data;
      Sched.sleep_us a.Host.sched 100_000.;
      marks.(0) <- Gc.minor_words ();
      Tcp.send a.Host.tcp c data;
      marks.(1) <- Gc.minor_words ()));
  Host.run_all [ a; b ];
  check string "both transfers arrive intact"
    (Bytes.to_string data ^ Bytes.to_string data) (Buffer.contents got);
  (* The receiver handed the first transfer's frames back to the
     link, and the second's copies land in them. *)
  check (float 0.) "words of the send: the frames' buffers are recycled"
    tcp_send_words (marks.(1) -. marks.(0));
  check bool "under one payload copy" true
    (tcp_send_words < float_of_int (k * mss / 8))

(* The request path below HTTP, on a warm cache: a hit reads the cache
   page straight into the caller's buffer, a directory lookup scans the
   cached blocks in place, and a routed IP send adds nothing to the
   frame path. *)

module Lru = Spin_dstruct.Lru
module Pkt = Spin_net.Pkt
module Phys_addr = Spin_vm.Phys_addr
module Block_cache = Spin_fs.Block_cache
module Simple_fs = Spin_fs.Simple_fs
module File_cache = Spin_fs.File_cache

let test_lru_hit_allocates_nothing () =
  let lru = Lru.create ~capacity:4 () in
  List.iter (fun k -> Lru.add lru k (String.length k)) [ "a"; "bb"; "ccc" ];
  (* Alternate two keys, so that every hit relinks its entry. *)
  let a = Sys.opaque_identity "a" and b = Sys.opaque_identity "bb" in
  check (float 0.) "minor words over 10,000 hits" 0.
    (minor_words_over 5_000 (fun () ->
       ignore (Lru.find lru a);
       ignore (Lru.find lru b)));
  let keys = ref [] in
  Lru.iter (fun k _ -> keys := k :: !keys) lru;
  check (list string) "most recent first" [ "bb"; "a"; "ccc" ] (List.rev !keys);
  check (option int) "a hit's value" (Some 2) (Lru.find lru b)

(* A formatted file system on a fresh machine; [body] runs in a strand
   and its failure, if any, is re-raised after the run. *)
let with_fs body =
  let m = fresh () in
  let d = Dispatcher.create m.Machine.clock in
  let sched = Sched.create m.Machine.sim d in
  let phys = Phys_addr.create m d in
  let disk = Machine.add_disk ~blocks:8192 m in
  let cache = Block_cache.create ~phys m sched disk in
  let failure = ref None in
  ignore (Sched.spawn sched ~name:"fs" (fun () ->
    try body cache phys (Simple_fs.format cache ~blocks:8192 ())
    with e -> failure := Some e));
  Sched.run sched;
  Option.iter raise !failure

let test_block_cache_hit_allocates_nothing () =
  with_fs (fun cache _ _ ->
    let block = 8000 and bs = Disk_dev.block_size in
    Block_cache.write cache ~block (Bytes.make bs 'b');
    let buf = Bytes.create bs in
    Block_cache.read_into cache ~block buf ~pos:0;      (* miss: now cached *)
    check (float 0.) "minor words over 10,000 hits" 0.
      (minor_words_over 10_000 (fun () ->
         Block_cache.read_into cache ~block buf ~pos:0));
    check string "the block" (String.make bs 'b') (Bytes.to_string buf))

let test_fs_lookup_allocates_nothing () =
  with_fs (fun _ _ fs ->
    (* 40 entries: the directory spans three blocks. *)
    for i = 0 to 39 do
      let name = Printf.sprintf "file%02d" i in
      Simple_fs.create fs ~name;
      Simple_fs.write fs ~name (Bytes.make (100 + i) 'x')
    done;
    let name = Sys.opaque_identity "file37"
    and missing = Sys.opaque_identity "file40" in
    (* The first lookup warms every block it reads. *)
    check int "size" 137 (Simple_fs.size fs ~name);
    check bool "missing" false (Simple_fs.exists fs ~name:missing);
    check (float 0.) "minor words over 1,000 lookups" 0.
      (minor_words_over 1_000 (fun () ->
         ignore (Simple_fs.exists fs ~name);
         ignore (Simple_fs.size fs ~name);
         ignore (Simple_fs.exists fs ~name:missing))))

(* The memory-pressure path below HTTP, on a cold cache. An uncached
   block read waits on the disk: the device copies the block into a
   buffer the cache reuses, and the wait links the strand's own node,
   so the suspension is all it allocates. A whole-file read adds only
   the file's bytes and its decoded inode (the record, 4 words, and its
   12 block pointers, 13). *)
let inode_words = 4. +. 13.

let test_uncached_read_words () =
  with_fs (fun cache _ fs ->
    let bs = Disk_dev.block_size in
    Block_cache.write cache ~block:8000 (Bytes.make bs 'u');
    let buf = Bytes.create bs and n = 100 in
    let read () = Block_cache.read_uncached cache ~block:8000 buf ~pos:0 ~len:bs in
    read ();                                        (* builds the request *)
    check (float 0.) "words per uncached block read" suspend_words
      (minor_words_over n read /. float_of_int n);
    check string "the block" (String.make bs 'u') (Bytes.to_string buf);
    let size = 300 in
    Simple_fs.create fs ~name:"one-block";
    Simple_fs.write fs ~name:"one-block" (Bytes.make size 'f');
    let name = Sys.opaque_identity "one-block" in
    ignore (Simple_fs.read fs ~name);               (* warms the lookup *)
    check (float 0.) "words per one-block file read"
      (bytes_words size +. inode_words +. suspend_words)
      (minor_words_over n (fun () -> ignore (Simple_fs.read fs ~name))
       /. float_of_int n))

(* A write on an idle disk: the block goes into the cache's own request
   buffer, which the device stores at completion, so the suspension is
   all it allocates. *)
let test_block_write_words () =
  with_fs (fun cache _ _ ->
    let data = Bytes.make Disk_dev.block_size 'w' and n = 100 in
    let write () = Block_cache.write cache ~block:8000 data in
    write ();                                       (* builds the request *)
    check (float 0.) "words per block write" suspend_words
      (minor_words_over n write /. float_of_int n);
    let buf = Bytes.create Disk_dev.block_size in
    Block_cache.read_into cache ~block:8000 buf ~pos:0;
    check bytes "the block" data buf)

(* A reclaim that takes a buffer-cache page: the cache's guard accepts
   the candidate, its handler answers the coldest page, read in place,
   and its invalidate hook drops that page's entry. It allocates
   nothing. *)
let test_reclaim_cache_page_words () =
  with_fs (fun cache phys _ ->
    let k = 4 and buf = Bytes.create Disk_dev.block_size in
    let per_page = Addr.page_size / Disk_dev.block_size in
    for g = 0 to k do
      Block_cache.read_into cache ~block:(g * per_page) buf ~pos:0
    done;
    ignore (Phys_addr.force_reclaim phys);          (* warms the walk *)
    let reclaims () = (Block_cache.stats cache).Spin_fs.Cache_stats.reclaims in
    let before = reclaims () in
    check (float 0.) "minor words over the reclaims" 0.
      (minor_words_over k (fun () -> ignore (Phys_addr.force_reclaim phys)));
    check int "every reclaim took a cache page" k (reclaims () - before))

(* A reclaim whose victim neither cache holds: both caches' guards
   decline it and their invalidate hooks walk their entries, and the
   answer is the option the service built when it allocated the page.
   It allocates nothing. *)
let test_force_reclaim_words () =
  let m = fresh () in
  let d = Dispatcher.create m.Machine.clock in
  let sched = Sched.create m.Machine.sim d in
  let phys = Phys_addr.create m d in
  (* The oldest pages, so the default policy takes them first. *)
  let k = 32 in
  for _ = 1 to k do
    ignore (Phys_addr.allocate phys ~owner:"hog" ~bytes:Addr.page_size)
  done;
  let disk = Machine.add_disk ~blocks:8192 m in
  let cache = Block_cache.create ~phys m sched disk in
  let words = ref nan and caches = ref (0, 0) in
  ignore (Sched.spawn sched ~name:"fs" (fun () ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    let fc = File_cache.create ~phys fs in
    for i = 0 to 3 do
      let name = Printf.sprintf "f%d" i in
      Simple_fs.create fs ~name;
      Simple_fs.write fs ~name (Bytes.make 3000 'c');
      ignore (File_cache.fetch fc ~name)
    done;
    words := minor_words_over k (fun () -> ignore (Phys_addr.force_reclaim phys));
    caches := ((Block_cache.stats cache).Spin_fs.Cache_stats.reclaims,
               (File_cache.stats fc).Spin_fs.Cache_stats.reclaims)));
  Sched.run sched;
  check (float 0.) "minor words over the reclaims" 0. !words;
  check int "every reclaim freed a page" k (Phys_addr.reclaims phys);
  check (pair int int) "neither cache lost a page" (0, 0) !caches

let test_file_cache_hit_words () =
  with_fs (fun _ phys fs ->
    let fc = File_cache.create ~phys fs in
    (* Under the minor heap's block limit, so the body counts. *)
    let size = 1000 in
    Simple_fs.create fs ~name:"index.html";
    Simple_fs.write fs ~name:"index.html" (Bytes.make size 'h');
    ignore (File_cache.fetch fc ~name:"index.html");    (* miss: now cached *)
    let name = Sys.opaque_identity "index.html" and n = 1000 in
    check (float 0.) "words per hit: the body and its option"
      (bytes_words size +. 2.)
      (minor_words_over n (fun () -> ignore (File_cache.fetch fc ~name))
       /. float_of_int n);
    check int "every fetch after the first hit" n
      (File_cache.stats fc).Spin_fs.Cache_stats.hits)

let test_ip_send_words () =
  let sim, a, _, nic_a, _ = two_hosts Nic.T3 in
  let d = Dispatcher.create a.Machine.clock in
  let sched = Sched.create ~intr:a.Machine.intr sim d in
  let nif = Netif.create a sched d nic_a ~name:"T3" in
  let ip = Ip.create a d in
  let dst = Ip.addr_of_quad 10 0 0 2 in
  Ip.add_interface ip nif ~addr:(Ip.addr_of_quad 10 0 0 1);
  Ip.add_route ip ~dst nif;
  (* A send consumes its packet, so each gets its own, made up front. *)
  let len = Sys.opaque_identity 1000 and n = 1_000 in
  let pkts = Array.init (2 * n) (fun _ -> Pkt.alloc len) in
  let next = ref 0 in
  let send () =
    ignore (Ip.send ip ~dst ~proto:Ip.proto_udp pkts.(!next));
    incr next in
  (* A first round warms the engine's pooled event records. The peer
     never drains its receive ring: it keeps 64 frames and hands the
     rest back to the link's free list. *)
  for _ = 1 to n do send () done;
  Sim.run sim;
  (* The NIC copies each frame into one of those buffers. *)
  let m = n - rx_ring_size in
  check (float 0.) "words per send: the NIC's frame copy, recycled"
    link_event_words
    (minor_words_over m send /. float_of_int m);
  check int "every frame sent" (n + m) (Ip.stats ip).Ip.sent

(* The receive path, from the frame Netif's rx service raises to the
   application: IP reads its header into its packet record, and TCP
   reads the segment in the frame and finds its connection with no
   tuple key. Host [b] runs the stack; its peer is a bare machine
   whose frames the test writes by hand. *)

(* A TCP segment's frame as this stack's wire format lays it out: the
   ethertype (2 bytes), the IP header (proto, ttl, length, src, dst:
   12 bytes), the TCP header (sport, dport, seq, ack, flags, pad,
   data length: 16 bytes), then the data. *)
let tcp_frame ~src ~dst ~sport ~dport ~seq ~ack ~flags data =
  let dlen = Bytes.length data in
  let f = Bytes.make (2 + 12 + Tcp.header_bytes + dlen) '\000' in
  Bytes.set_uint16_le f 0 0x0800;
  Bytes.set_uint8 f 2 Ip.proto_tcp;
  Bytes.set_uint8 f 3 64;
  Bytes.set_uint16_le f 4 (Tcp.header_bytes + dlen);
  Bytes.set_int32_le f 6 (Int32.of_int src);
  Bytes.set_int32_le f 10 (Int32.of_int dst);
  Bytes.set_uint16_le f 14 sport;
  Bytes.set_uint16_le f 16 dport;
  Bytes.set_int32_le f 18 (Int32.of_int seq);
  Bytes.set_int32_le f 22 (Int32.of_int ack);
  Bytes.set_uint8 f 26 flags;
  Bytes.set_uint16_le f 28 dlen;
  Bytes.blit data 0 f 30 dlen;
  Pkt.of_frame f ~len:(Bytes.length f)

(* IP's per-packet record ({src; dst; proto; ttl; payload}), which
   [Ip.input] builds for every frame it delivers. *)
let ip_packet_words = 6.

(* [b] with an established connection from port 40000 of its peer to
   its port 80, the peer's next sequence number 1; [on_receive] gets
   the connection's data. *)
let tcp_receiver on_receive =
  let sim = Sim.create (Clock.create Cost.alpha_133) in
  let a_addr = Ip.addr_of_quad 10 0 0 1 and b_addr = Ip.addr_of_quad 10 0 0 2 in
  let a = Machine.create_on sim ~mem_mb:4 ~name:"a" () in
  let b = Host.create sim ~name:"b" ~addr:b_addr in
  let nic_a, nic_b = Machine.connect a b.Host.machine ~kind:Nic.T3 () in
  (* The peer's driver hands every frame [b] sends straight back to
     the link, so [b]'s frames recycle its buffers as a live peer's
     would. *)
  Intr.register a.Machine.intr ~line:(Nic.line nic_a) (fun () ->
    while Nic.rx_pending nic_a do Nic.release nic_a (Nic.receive nic_a) done);
  let nif = Netif.create b.Host.machine b.Host.sched b.Host.dispatcher nic_b ~name:"T3" in
  Ip.add_interface b.Host.ip nif ~addr:b_addr;
  Ip.add_route b.Host.ip ~dst:a_addr nif;
  let conn = ref None in
  Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun c ->
    conn := Some c;
    Tcp.on_receive c on_receive);
  let segment ~seq ~ack ~flags data =
    tcp_frame ~src:a_addr ~dst:b_addr ~sport:40000 ~dport:80 ~seq ~ack ~flags
      data in
  (* What Netif's rx service does with a frame, less its receive
     overhead charge. *)
  let arrive pkt = Dispatcher.raise_event (Netif.rx_event nif) pkt in
  let syn = 1 and ack = 2 in
  arrive (segment ~seq:0 ~ack:0 ~flags:syn Bytes.empty);
  arrive (segment ~seq:1 ~ack:1 ~flags:ack Bytes.empty);
  match !conn with
  | None -> fail "handshake did not complete"
  | Some c ->
    check string "established" "ESTABLISHED"
      (Tcp.state_to_string (Tcp.state c));
    (sim, b, c, segment, arrive)

let test_tcp_receive_words () =
  let len = 1000 and n = 64 in
  let marks = Array.make 2 0. and received = ref 0 in
  let sim, _, _, segment, arrive =
    tcp_receiver (fun data ->
      marks.(1) <- Gc.minor_words ();
      received := !received + Bytes.length data) in
  let frames =
    Array.init n (fun i ->
      segment ~seq:(1 + (i * len)) ~ack:1 ~flags:2 (Bytes.make len 'd')) in
  Array.iteri
    (fun i pkt ->
      (* Fire whatever the previous segment scheduled (an ACK on the
         wire, a delayed ACK) outside the measurement. *)
      Sim.run sim;
      marks.(0) <- Gc.minor_words ();
      arrive pkt;
      (* The first segments warm the engine's pools. *)
      if i >= 8 then
        check (float 0.)
          (Printf.sprintf "segment %d: the application copy and IP's record" i)
          (bytes_words len +. ip_packet_words)
          (marks.(1) -. marks.(0)))
    frames;
  check int "every byte delivered" (n * len) !received

(* A pure ACK that acknowledges part of what is in flight re-arms the
   connection's own retransmit timer: IP's record is all it
   allocates. *)
let test_tcp_ack_receive_words () =
  let sim, b, c, segment, arrive = tcp_receiver (fun _ -> ()) in
  let mss = 1024 and k = 40 in
  Tcp.send b.Host.tcp c (Bytes.make (k * mss) 's');
  (* Fire the link's deliveries, and leave the retransmit timer, the
     one event due 200 ms out, pending. *)
  let settle () = while Sim.pending sim > 1 do ignore (Sim.idle_step sim) done in
  let acks =
    Array.init k (fun i ->
      segment ~seq:1 ~ack:(1 + ((i + 1) * mss)) ~flags:2 Bytes.empty) in
  (* The window keeps 8 segments in flight: each ACK frees one, and
     the window sends the next until none waits. The last ACKs before
     the final one free a segment, send nothing and leave some in
     flight. *)
  for i = 0 to k - 9 do settle (); arrive acks.(i) done;
  for i = k - 8 to k - 2 do
    settle ();
    let words = minor_words_over 1 (fun () -> arrive acks.(i)) in
    check (float 0.)
      (Printf.sprintf "ack %d: IP's record alone" i)
      ip_packet_words words
  done

(* The whole receive queueing path, end to end: a frame one NIC sends
   crosses the link, waits in the peer's receive ring, is drained by a
   started [Netif] into its shard queue and taken by the protocol
   strand, and [Ip.input] raises it. That allocates the frame's view
   and IP's record: the sender's device copy lands in the buffer the
   previous frame used, which [Netif] handed back after its raise, and
   no queue on the way builds a cell or an option. The protocol strand
   blocks again (its suspension) only after IP's handler has read the
   count. *)
let test_frame_path_words () =
  let sim, _, b, nic_a, nic_b = two_hosts Nic.T3 in
  let d = Dispatcher.create b.Machine.clock in
  let sched = Sched.create ~intr:b.Machine.intr sim d in
  let nif = Netif.create b sched d nic_b ~name:"T3" in
  let ip = Ip.create b d in
  let a_addr = Ip.addr_of_quad 10 0 0 1 and b_addr = Ip.addr_of_quad 10 0 0 2 in
  Ip.add_interface ip nif ~addr:b_addr;
  let marks = Array.make 2 0. and delivered = ref 0 in
  ignore
    (Dispatcher.install (Ip.packet_arrived ip) ~installer:"probe" (fun _ ->
       marks.(1) <- Gc.minor_words ();
       incr delivered));
  Netif.start nif;
  let frame =
    Pkt.buffer
      (tcp_frame ~src:a_addr ~dst:b_addr ~sport:40000 ~dport:80 ~seq:1 ~ack:1
         ~flags:2 (Bytes.make 1000 'd')) in
  let len = Sys.opaque_identity (Bytes.length frame) and n = 64 and view = 4. in
  for i = 1 to n do
    marks.(0) <- Gc.minor_words ();
    ignore (Nic.transmit nic_a ~off:0 ~len frame);
    (* [Sched.run]'s loop is a closure; stepping by hand is not. *)
    Sim.run sim;
    while Sched.step sched do () done;
    (* The first frames warm the engine's pools. *)
    if i > 8 then
      check (float 0.)
        (Printf.sprintf "frame %d: its view and IP's record" i)
        (view +. ip_packet_words)
        (marks.(1) -. marks.(0))
  done;
  check int "every frame delivered" n !delivered

(* A data segment that completes a pair is acknowledged at once. Beyond
   the application copy and IP's record, the ACK's frame is the NIC's
   copy alone: the engine frames it in a header buffer of its own, and
   the copy lands in the buffer the previous ACK used, so it allocates
   nothing. *)
let test_tcp_immediate_ack_words () =
  let len = 1000 and n = 32 in
  let sim, _, _, segment, arrive = tcp_receiver (fun _ -> ()) in
  let frames =
    Array.init n (fun i ->
      segment ~seq:(1 + (i * len)) ~ack:1 ~flags:2 (Bytes.make len 'd')) in
  Array.iteri
    (fun i pkt ->
      if i mod 2 = 0 then begin
        (* Deliver the previous ACK outside the measurement. The first
           segment of a pair arms the delayed ACK, which must not fire
           before the second arrives. *)
        Sim.run sim;
        arrive pkt
      end else begin
        let words = minor_words_over 1 (fun () -> arrive pkt) in
        (* The first pairs warm the engine's pools. *)
        if i >= 8 then
          check (float 0.)
            (Printf.sprintf
               "segment %d: the application copy and IP's record; the \
                ACK's frame copy is recycled" i)
            (bytes_words len +. ip_packet_words)
            words
      end)
    frames

(* A Go-Back-N timeout over 8 segments in flight resends each from its
   run, in a re-aimed frame, and re-arms the connection's own timer.
   The NIC's copies of the 8 frames are all it does beyond that, and
   they land in the buffers the previous round's frames used: it
   allocates nothing. *)
let test_tcp_timeout_resend_words () =
  let sim, b, c, _, _ = tcp_receiver (fun _ -> ()) in
  let mss = 1024 and k = 8 in
  Tcp.send b.Host.tcp c (Bytes.make (k * mss) 'r');
  (* The peer never acknowledges. Fire the link's deliveries, leaving
     the retransmit timer, the one event due 200 ms out, then fire
     it. *)
  let timeout () =
    while Sim.pending sim > 1 do ignore (Sim.idle_step sim) done;
    minor_words_over 1 (fun () -> ignore (Sim.idle_step sim)) in
  (* The first timeout warms the engine's pools. *)
  ignore (timeout ());
  check (float 0.) "8 segments resent: their frame copies are recycled" 0.
    (timeout ());
  check int "each timeout resent the window" (2 * k)
    (Tcp.stats b.Host.tcp).Tcp.retransmits

let test_clock_hook_raise_keeps_hooks () =
  let clock = Clock.create Cost.alpha_133 in
  let calls = ref 0 in
  Clock.add_hook clock (fun _ ->
    incr calls;
    if !calls = 1 then failwith "hook");
  check_raises "the hook's exception reaches the charger" (Failure "hook")
    (fun () -> Clock.charge clock 10);
  Clock.charge clock 10;
  check int "hooks still run on the next charge" 2 !calls

let test_sim_raising_action_does_not_wedge () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let later = ref false in
  Sim.at sim (Clock.now clock + 10) (fun () -> failwith "action");
  Sim.at sim (Clock.now clock + 100) (fun () -> later := true);
  check_raises "the action's exception reaches the charger" (Failure "action")
    (fun () -> Clock.charge clock 20);
  Clock.charge clock 200;
  check bool "a later due event still fires" true !later

let test_intr_raising_handler_unmasks () =
  let m = fresh () in
  let intr = m.Machine.intr in
  Intr.register intr ~line:3 (fun () -> failwith "handler");
  check_raises "the handler's exception reaches the poster" (Failure "handler")
    (fun () -> Intr.post intr ~line:3);
  (* Were the mask leaked, a later line would queue, not run. *)
  let hits = ref 0 in
  Intr.register intr ~line:4 (fun () -> incr hits);
  Intr.post intr ~line:4;
  check int "unmasked after a raising handler" 1 !hits;
  Intr.post_ipi intr ~cpu:0 (fun () -> failwith "ipi");
  check_raises "the IPI action's exception reaches the drainer" (Failure "ipi")
    (fun () -> ignore (Intr.drain_ipis intr ~cpu:0));
  Intr.post intr ~line:4;
  check int "unmasked after a raising IPI action" 2 !hits

let test_direct_raise_closes_span () =
  let d = Dispatcher.create (Clock.create Cost.alpha_133) in
  let tr = Dispatcher.tracer d in
  Trace.enable tr;
  let e =
    Dispatcher.declare d ~name:"Boom" ~owner:"M" (fun () -> failwith "primary") in
  check_raises "the primary's exception reaches the raiser" (Failure "primary")
    (fun () -> Dispatcher.raise_event e ());
  check int "the dispatcher span closed" 1
    (match Trace.summary tr ~key:"dispatcher.Boom" with
     | Some s -> s.Trace.count
     | None -> 0);
  check (list bool) "begin and end both recorded" [ true; false ]
    (List.filter_map
       (fun r -> match r.Trace.kind with
          | Trace.Begin _ -> Some true
          | Trace.End _ -> Some false
          | Trace.Instant -> None)
       (Trace.records tr))

let () =
  Alcotest.run "spin_machine"
    [
      ( "clock",
        [
          Alcotest.test_case "charging" `Quick test_clock_charges;
          Alcotest.test_case "stamp and hooks" `Quick test_clock_stamp_and_hooks;
        ] );
      ( "sim",
        [
          Alcotest.test_case "fires in deadline order" `Quick test_sim_fires_in_order;
          Alcotest.test_case "fires when clock passes deadline" `Quick test_sim_fire_on_charge;
          Alcotest.test_case "cancellation" `Quick test_sim_cancel;
          Alcotest.test_case "nested scheduling" `Quick test_sim_nested_schedule;
          Alcotest.test_case "cancel unlinks eagerly" `Quick
            test_sim_cancel_unlinks_eagerly;
          Alcotest.test_case "event records recycle" `Quick test_sim_pool_recycles;
          Alcotest.test_case "agrees with a sorted-list model" `Quick
            test_sim_matches_model;
        ] );
      ( "phys_mem",
        [
          Alcotest.test_case "byte roundtrip" `Quick test_phys_mem_rw;
          Alcotest.test_case "word across frames" `Quick test_phys_mem_cross_frame;
          Alcotest.test_case "copies charge cycles" `Quick test_phys_mem_copy_charges;
          Alcotest.test_case "bounds checked" `Quick test_phys_mem_bounds;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "translate" `Quick test_mmu_translate;
          Alcotest.test_case "protection" `Quick test_mmu_protection;
          Alcotest.test_case "ref/mod bits" `Quick test_mmu_ref_mod_bits;
          Alcotest.test_case "tlb hit/miss" `Quick test_mmu_tlb_counts;
          Alcotest.test_case "context isolation" `Quick test_mmu_context_isolation;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "syscall trap costs" `Quick test_cpu_syscall_costs;
          Alcotest.test_case "trap cost symmetric when handler raises" `Quick
            test_cpu_trap_cost_symmetric_on_raise;
          Alcotest.test_case "unhandled trap raises" `Quick test_cpu_unhandled_trap;
          Alcotest.test_case "fault and resume" `Quick test_cpu_fault_resume;
          Alcotest.test_case "unresolved fault raises" `Quick test_cpu_unresolved_fault_raises;
          Alcotest.test_case "user copies fault per page" `Quick test_cpu_copy_user;
          Alcotest.test_case "context switch cost" `Quick test_cpu_context_switch_cost;
        ] );
      ( "intr",
        [
          Alcotest.test_case "delivery and spurious" `Quick test_intr_delivery;
          Alcotest.test_case "masking defers" `Quick test_intr_masking;
          Alcotest.test_case "no reentrancy" `Quick test_intr_handler_not_reentered;
        ] );
      ( "smp",
        [
          Alcotest.test_case "parallel clock divides with carry" `Quick
            test_clock_parallel_division_and_carry;
          Alcotest.test_case "clock hooks fire on wall advance only" `Quick
            test_clock_parallel_hooks_fire_on_wall_advance_only;
          Alcotest.test_case "IPI FIFO order and counts" `Quick
            test_ipi_fifo_order_and_counts;
          Alcotest.test_case "broadcast hits every other cpu" `Quick
            test_ipi_broadcast_sync_hits_every_other_cpu;
          Alcotest.test_case "shootdown completes inside unmap" `Quick
            test_shootdown_completes_before_unmap_returns;
          Alcotest.test_case "narrowing fires, widening skips" `Quick
            test_protect_narrowing_fires_widening_skips;
        ] );
      ( "devices",
        [
          Alcotest.test_case "console io" `Quick test_console_io;
          Alcotest.test_case "disk roundtrip" `Quick test_disk_roundtrip;
          Alcotest.test_case "disk latency model" `Quick test_disk_latency_model;
          Alcotest.test_case "disk fifo" `Quick test_disk_fifo_queue;
          Alcotest.test_case "nic delivery" `Quick test_nic_delivery;
          Alcotest.test_case "nic mtu" `Quick test_nic_mtu;
          Alcotest.test_case "pio vs dma cpu cost" `Quick test_nic_pio_charges_cpu;
          Alcotest.test_case "link serialization" `Quick test_link_serialization;
          Alcotest.test_case "machines have isolated clocks" `Quick test_machine_isolated_clocks;
          Alcotest.test_case "cost conversions" `Quick test_cost_conversions;
          Alcotest.test_case "connect requires shared sim" `Quick
            test_machine_connect_requires_shared_sim;
          Alcotest.test_case "loss validation" `Quick test_link_loss_validation;
          Alcotest.test_case "idle accounting" `Quick test_idle_accounting;
        ] );
      ( "hot paths",
        [
          Alcotest.test_case "charge allocates nothing" `Quick
            test_charge_allocates_nothing;
          Alcotest.test_case "direct raise allocates nothing" `Quick
            test_direct_raise_allocates_nothing;
          Alcotest.test_case "general raise allocates nothing" `Quick
            test_general_raise_allocates_nothing;
          Alcotest.test_case "compiled predicate allocates nothing" `Quick
            test_compiled_predicate_allocates_nothing;
          Alcotest.test_case "strand yield stays within its pinned words" `Quick
            test_strand_yield_words;
          Alcotest.test_case "strand block and unblock link owned nodes" `Quick
            test_strand_block_words;
          Alcotest.test_case "condition exchange allocates two suspensions"
            `Quick test_condition_exchange_words;
          Alcotest.test_case "tlb hit allocates nothing, a fill its entry"
            `Quick test_mmu_translate_words;
          Alcotest.test_case "protecting 100 pages allocates nothing" `Quick
            test_protect_words;
          Alcotest.test_case "a timed sleep allocates its suspension" `Quick
            test_sleep_words;
          Alcotest.test_case "an appel1 fault allocates its records and fill"
            `Quick test_appel1_fault_words;
          Alcotest.test_case "nic transmit allocates the frame copy alone"
            `Quick test_nic_transmit_words;
          Alcotest.test_case "interrupt delivery allocates nothing" `Quick
            test_intr_deliver_allocates_nothing;
          Alcotest.test_case "rx interrupt allocates a view per frame"
            `Quick test_netif_rx_words;
          Alcotest.test_case "tcp segments are not copied on the host" `Quick
            test_tcp_send_words;
          Alcotest.test_case "lru hit allocates nothing" `Quick
            test_lru_hit_allocates_nothing;
          Alcotest.test_case "block cache hit allocates nothing" `Quick
            test_block_cache_hit_allocates_nothing;
          Alcotest.test_case "fs lookup and size allocate nothing" `Quick
            test_fs_lookup_allocates_nothing;
          Alcotest.test_case "file cache hit allocates the body" `Quick
            test_file_cache_hit_words;
          Alcotest.test_case "an uncached read allocates its suspension" `Quick
            test_uncached_read_words;
          Alcotest.test_case "a reclaim past both caches allocates nothing"
            `Quick test_force_reclaim_words;
          Alcotest.test_case "ip send allocates the frame copy alone"
            `Quick test_ip_send_words;
          Alcotest.test_case
            "tcp receive allocates the app copy and ip's record" `Quick
            test_tcp_receive_words;
          Alcotest.test_case "a pure ack re-arms the rto in place" `Quick
            test_tcp_ack_receive_words;
          Alcotest.test_case "raising clock hook keeps hooks running" `Quick
            test_clock_hook_raise_keeps_hooks;
          Alcotest.test_case "raising sim action does not wedge firing" `Quick
            test_sim_raising_action_does_not_wedge;
          Alcotest.test_case "raising interrupt handler unmasks" `Quick
            test_intr_raising_handler_unmasks;
          Alcotest.test_case "raising direct handler closes its span" `Quick
            test_direct_raise_closes_span;
          Alcotest.test_case "a one-shot event allocates nothing" `Quick
            test_sim_at_words;
          Alcotest.test_case "a block write allocates its suspension" `Quick
            test_block_write_words;
          Alcotest.test_case "a reclaim of a cache page allocates nothing"
            `Quick test_reclaim_cache_page_words;
          Alcotest.test_case "a received frame allocates its view and ip's record"
            `Quick test_frame_path_words;
          Alcotest.test_case
            "an immediate ack allocates its frame copy alone" `Quick
            test_tcp_immediate_ack_words;
          Alcotest.test_case
            "a go-back-n timeout allocates the frame copies alone" `Quick
            test_tcp_timeout_resend_words;
          Alcotest.test_case "a strand's life allocates its records" `Quick
            test_strand_life_words;
          Alcotest.test_case "an ipi wakeup allocates nothing" `Quick
            test_ipi_wakeup_words;
          Alcotest.test_case "verifying match_field allocates its state"
            `Quick test_verify_match_field_words;
          Alcotest.test_case "match_string fills its program in place" `Quick
            test_match_string_words;
          Alcotest.test_case "a swap's registry walks allocate what they keep"
            `Quick test_swap_sweep_words;
          Alcotest.test_case "frames through a warm pair allocate nothing"
            `Quick test_frame_recycling_words;
        ] );
    ]

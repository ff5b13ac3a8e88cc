(* Tests for the schedule fuzzer: it must catch a planted lost-wakeup
   race that the default round-robin schedule never exposes, and a
   seed must name exactly one schedule (replay determinism). *)

open Alcotest
open Spin_sched
module Machine = Spin_machine.Machine
module Clock = Spin_machine.Clock
module Trace = Spin_machine.Trace
module Dispatcher = Spin_core.Dispatcher

(* The planted bug is the classic check-then-wake race: the consumer
   tests the flag, crosses a charged gap with a preemption point, and
   blocks without re-checking; the producer sets the flag and only
   wakes the consumer if it is already blocked. Under the default
   scheduler the consumer always reaches [block_current] before the
   producer runs, so the pair is clean. A fuzzed schedule that
   preempts the consumer inside the gap and then runs the producer to
   completion strands the consumer forever. *)
let run_planted ?seed ?(traced = false) () =
  let m = Machine.create ~name:"fuzz-test" ~mem_mb:4 () in
  let d = Dispatcher.create m.Machine.clock in
  let s = Sched.create m.Machine.sim d in
  let tr = Trace.of_clock m.Machine.clock in
  if traced then Trace.enable tr;
  let fz =
    Option.map
      (fun seed ->
        Sched_fuzz.attach ~cpus:[ m.Machine.cpu ] ~dispatcher:d ~mean_period:150
          ~seed s)
      seed in
  let flag = ref false in
  let completed = ref 0 in
  ignore (Sched.spawn s ~name:"consumer" (fun () ->
    if not !flag then begin
      Clock.charge m.Machine.clock 400;      (* room for an injection *)
      Sched.preempt_point s;
      Sched.block_current s                  (* bug: no re-check *)
    end;
    incr completed));
  let consumer =
    match Sched.runnable_strands s with
    | c :: _ -> c
    | [] -> fail "consumer not runnable" in
  ignore (Sched.spawn s ~name:"producer" (fun () ->
    Clock.charge m.Machine.clock 100;
    flag := true;
    if consumer.Strand.state = Strand.Blocked then Sched.unblock s consumer;
    incr completed));
  Sched.run s;
  (match fz with
   | Some fz -> Sched_fuzz.check_quiescence fz; Sched_fuzz.detach fz
   | None -> ());
  (fz, !completed, tr)

let find_bad_seed () =
  let rec scan seed =
    if seed > 80 then None
    else
      match run_planted ~seed () with
      | Some fz, _, _ when Sched_fuzz.violations fz <> [] -> Some seed
      | _ -> scan (seed + 1) in
  scan 1

let test_default_schedule_clean () =
  let fz, completed, _ = run_planted () in
  check bool "no fuzzer attached" true (fz = None);
  check int "both strands finished" 2 completed

let test_fuzzer_finds_planted_bug () =
  match find_bad_seed () with
  | None -> fail "no seed in 1..80 exposed the planted race"
  | Some seed ->
    (match run_planted ~seed () with
     | Some fz, completed, _ ->
       check bool "consumer stranded" true (completed < 2);
       let v = Sched_fuzz.violations fz in
       check bool "violation names the lost wakeup" true
         (List.exists
            (fun m ->
              let has sub =
                let ls = String.length sub and lm = String.length m in
                let rec at i = i + ls <= lm
                  && (String.sub m i ls = sub || at (i + 1)) in
                at 0 in
              has "lost wakeup" && has "consumer")
            v)
     | None, _, _ -> fail "fuzzer was not attached")

let test_replay_is_deterministic () =
  let seed =
    match find_bad_seed () with
    | Some s -> s
    | None -> fail "no failing seed to replay" in
  (* Strand ids come from a process-global counter, so "strand#15"
     in one run is "strand#23" in the next; everything else — cycle
     stamps, names, order — must match exactly. *)
  let strip_ids m =
    String.concat "#"
      (List.map
         (fun part ->
           let n = ref 0 in
           while !n < String.length part
                 && part.[!n] >= '0' && part.[!n] <= '9' do incr n done;
           String.sub part !n (String.length part - !n))
         (String.split_on_char '#' m)) in
  let observe () =
    match run_planted ~seed ~traced:true () with
    | Some fz, _, tr ->
      let st = Sched_fuzz.stats fz in
      let spans =
        List.map (fun r -> (r.Trace.ts, r.Trace.cat, r.Trace.name))
          (Trace.records tr) in
      (List.map strip_ids (Sched_fuzz.violations fz), st.Sched_fuzz.decisions,
       st.Sched_fuzz.injected_preempts, spans)
    | None, _, _ -> fail "fuzzer was not attached" in
  let v1, d1, p1, spans1 = observe () in
  let v2, d2, p2, spans2 = observe () in
  check (list string) "same violations" v1 v2;
  check int "same decision count" d1 d2;
  check int "same injected preemptions" p1 p2;
  check bool "non-empty trace" true (spans1 <> []);
  check bool "identical schedule trace" true (spans1 = spans2)

let test_clean_seed_is_quiet () =
  (* Any seed that does not trip the race must report nothing and
     leave both strands complete. *)
  let rec first_clean seed =
    if seed > 80 then fail "no clean seed in 1..80"
    else
      match run_planted ~seed () with
      | Some fz, 2, _ when Sched_fuzz.violations fz = [] -> seed
      | _ -> first_clean (seed + 1) in
  let seed = first_clean 1 in
  match run_planted ~seed () with
  | Some fz, completed, _ ->
    check int "both finished" 2 completed;
    check int "no violations" 0 (Sched_fuzz.stats fz).Sched_fuzz.violations;
    check bool "selector actually drove the run" true
      ((Sched_fuzz.stats fz).Sched_fuzz.decisions > 0)
  | None, _, _ -> fail "fuzzer was not attached"

(* ------------------------------------------------------------------ *)
(* Multi-CPU campaigns: CPU interleaving under a seed, exact replay   *)
(* ------------------------------------------------------------------ *)

(* A correctly synchronized multiprocessor workload: compute strands
   that spread by stealing, plus a cross-CPU ping-pong whose unblocks
   travel as IPIs. Any schedule the fuzzer explores must leave it
   clean — violations here are scheduler bugs, not workload bugs. *)
let run_smp_workload ~seed ~cpus ?(traced = false) () =
  let m = Machine.create ~name:"fuzz-smp" ~mem_mb:4 ~cpus () in
  let d = Dispatcher.create m.Machine.clock in
  let s = Sched.create ~intr:m.Machine.intr m.Machine.sim d in
  let tr = Trace.of_clock m.Machine.clock in
  if traced then Trace.enable tr;
  let fz =
    Sched_fuzz.attach ~cpus:(Array.to_list m.Machine.cpus) ~dispatcher:d
      ~mean_period:150 ~seed s in
  let completed = ref 0 in
  for i = 1 to 4 do
    ignore (Sched.spawn s ~name:(Printf.sprintf "compute-%d" i) (fun () ->
      for _ = 1 to 3 do
        Clock.charge m.Machine.clock 300;
        Sched.preempt_point s;
        Sched.yield s
      done;
      incr completed))
  done;
  let sa = ref None and sb = ref None in
  (* Yield until the peer is actually Blocked: the state check and the
     unblock are not separated by a charge, so no injected preemption
     can fire between them. *)
  let wait_blocked cell =
    let rec go () =
      match !cell with
      | Some str when str.Strand.state = Strand.Blocked -> str
      | _ -> Sched.yield s; go () in
    go () in
  let a = Sched.spawn s ~name:"ping" (fun () ->
    sa := Some (Sched.self s);
    for _ = 1 to 5 do
      Sched.unblock s (wait_blocked sb);
      Sched.block_current s
    done;
    incr completed) in
  Sched.set_affinity s a (Some 0);
  let b = Sched.spawn s ~name:"pong" (fun () ->
    sb := Some (Sched.self s);
    for _ = 1 to 5 do
      Sched.block_current s;
      Sched.unblock s (wait_blocked sa)
    done;
    incr completed) in
  Sched.set_affinity s b (Some (cpus - 1));
  Sched.run s;
  Sched_fuzz.check_quiescence fz;
  Sched_fuzz.detach fz;
  (fz, !completed, Clock.now m.Machine.clock, tr)

let test_multi_cpu_campaign_is_clean () =
  List.iter
    (fun cpus ->
      for seed = 1 to 10 do
        let fz, completed, _, _ = run_smp_workload ~seed ~cpus () in
        let st = Sched_fuzz.stats fz in
        check int
          (Printf.sprintf "all complete (seed %d, %d CPUs)" seed cpus)
          6 completed;
        check (list string)
          (Printf.sprintf "no violations (seed %d, %d CPUs)" seed cpus)
          [] (Sched_fuzz.violations fz);
        check bool "the selector drove the run" true
          (st.Sched_fuzz.decisions > 0);
        check bool
          (Printf.sprintf "CPU interleaving explored (seed %d, %d CPUs)"
             seed cpus)
          true (st.Sched_fuzz.cpu_decisions > 0)
      done)
    [ 2; 4 ]

let test_multi_cpu_replay_is_deterministic () =
  (* A seed names one schedule on a multiprocessor too: CPU choices
     and steal decisions replay exactly, so cycle stamps, decision
     counts and the full trace must be bit-identical across runs. *)
  let strip_ids m =
    String.concat "#"
      (List.map
         (fun part ->
           let n = ref 0 in
           while !n < String.length part
                 && part.[!n] >= '0' && part.[!n] <= '9' do incr n done;
           String.sub part !n (String.length part - !n))
         (String.split_on_char '#' m)) in
  let observe seed =
    let fz, completed, final_cycle, tr =
      run_smp_workload ~seed ~cpus:4 ~traced:true () in
    let st = Sched_fuzz.stats fz in
    let spans =
      List.map (fun r -> (r.Trace.ts, r.Trace.cat, strip_ids r.Trace.name))
        (Trace.records tr) in
    (completed, final_cycle, st.Sched_fuzz.decisions,
     st.Sched_fuzz.cpu_decisions, st.Sched_fuzz.injected_preempts, spans) in
  List.iter
    (fun seed ->
      let c1, t1, d1, cd1, p1, spans1 = observe seed in
      let c2, t2, d2, cd2, p2, spans2 = observe seed in
      check int "same completions" c1 c2;
      check int "same final cycle" t1 t2;
      check int "same decision count" d1 d2;
      check int "same CPU decisions" cd1 cd2;
      check int "same injected preemptions" p1 p2;
      check bool "non-empty trace" true (spans1 <> []);
      check bool "bit-identical schedule trace" true (spans1 = spans2);
      check bool "different seeds explore different schedules" true
        (cd1 > 0))
    [ 3; 17; 41 ]

let () =
  Alcotest.run "spin_fuzz"
    [
      ( "planted race",
        [
          test_case "default schedule is clean" `Quick
            test_default_schedule_clean;
          test_case "fuzzer exposes the race" `Quick
            test_fuzzer_finds_planted_bug;
          test_case "replay is deterministic" `Quick
            test_replay_is_deterministic;
          test_case "clean seeds stay quiet" `Quick test_clean_seed_is_quiet;
        ] );
      ( "multi-cpu",
        [
          test_case "seeded campaign at 2 and 4 CPUs is clean" `Quick
            test_multi_cpu_campaign_is_clean;
          test_case "multi-CPU replay is deterministic" `Quick
            test_multi_cpu_replay_is_deterministic;
        ] );
    ]

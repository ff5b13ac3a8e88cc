(* Golden replay digests: the event engine must replay fuzz-seeded
   workloads bit-identically, whatever structure holds its deadlines.

   The digests below were captured by running exactly this workload on
   the original binary-heap engine (commit 51b2b11), held through the
   timer wheel that later replaced it, and hold again on today's
   pooled heap: trace record counts, a rolling hash over every
   (timestamp, category, name) record, the final clock value, and the
   fuzzer's decision/preemption counts. If the engine ever fires in a
   different order — even two same-deadline events swapping places —
   timestamps shift and these digests change. *)

module Machine = Spin_machine.Machine
module Clock = Spin_machine.Clock
module Trace = Spin_machine.Trace
module Dispatcher = Spin_core.Dispatcher
module Sched = Spin_sched.Sched
module Sched_fuzz = Spin_sched.Sched_fuzz

open Alcotest

type digest = {
  records : int;
  hash : int;
  now : int;
  decisions : int;
  preempts : int;
}

let digest_of seed =
  let m = Machine.create ~name:"golden" ~mem_mb:4 () in
  let d = Dispatcher.create m.Machine.clock in
  let s = Sched.create m.Machine.sim d in
  let tr = Trace.of_clock m.Machine.clock in
  Trace.enable tr;
  let fz =
    Sched_fuzz.attach ~cpus:[ m.Machine.cpu ] ~dispatcher:d ~mean_period:200
      ~seed s in
  for i = 1 to 4 do
    ignore (Sched.spawn s ~name:(Printf.sprintf "w%d" i) (fun () ->
      for _ = 1 to 5 do
        Clock.charge m.Machine.clock (50 * i);
        Sched.yield s;
        Sched.sleep_us s (float_of_int i *. 1.5)
      done))
  done;
  Sched.run s;
  let st = Sched_fuzz.stats fz in
  Sched_fuzz.detach fz;
  let recs = Trace.records tr in
  let hash =
    List.fold_left
      (fun acc r ->
        let acc = (acc * 1000003) lxor r.Trace.ts in
        let acc = (acc * 1000003) lxor Hashtbl.hash r.Trace.cat in
        (acc * 1000003) lxor Hashtbl.hash r.Trace.name)
      0x9e3779b9 recs
    land max_int in
  { records = List.length recs; hash; now = Clock.now m.Machine.clock;
    decisions = st.Sched_fuzz.decisions;
    preempts = st.Sched_fuzz.injected_preempts }

(* (seed, digest captured on the heap engine) *)
let golden =
  [
    (42, { records = 556; hash = 0x80c2de8931fa165; now = 54212;
           decisions = 44; preempts = 122 });
    (7, { records = 556; hash = 0x1f0eb009c9b3087d; now = 54692;
          decisions = 44; preempts = 128 });
    (1337, { records = 556; hash = 0x162d2a1edca047dd; now = 54692;
             decisions = 44; preempts = 119 });
  ]

let test_golden_digests () =
  List.iter
    (fun (seed, want) ->
      let got = digest_of seed in
      let tag fmt = Printf.sprintf fmt seed in
      check int (tag "seed %d records") want.records got.records;
      check int (tag "seed %d trace hash") want.hash got.hash;
      check int (tag "seed %d final clock") want.now got.now;
      check int (tag "seed %d decisions") want.decisions got.decisions;
      check int (tag "seed %d preempts") want.preempts got.preempts)
    golden

let test_replay_deterministic () =
  (* The same seed twice in one process: identical digests, so replay
     determinism survives pool reuse and any process-global state. *)
  let a = digest_of 42 and b = digest_of 42 in
  check int "records" a.records b.records;
  check int "hash" a.hash b.hash;
  check int "clock" a.now b.now;
  check int "decisions" a.decisions b.decisions;
  check int "preempts" a.preempts b.preempts

(* The same digest on four CPUs, where the seed also draws which CPU
   advances and what an idle CPU steals. Every strand spawns on CPU 0,
   so idle CPUs steal; two are pinned, which the steal walk must skip.
   Captured before the scheduler's three policy hooks became one
   chooser, so the CPU and steal draws are pinned across that fold. *)
type smp_digest = {
  s_records : int;
  s_hash : int;
  s_now : int;
  s_decisions : int;
  s_cpu_decisions : int;
  s_preempts : int;
  s_steals : int;
}

let smp_digest_of seed =
  let m = Machine.create ~name:"golden-smp" ~mem_mb:4 ~cpus:4 () in
  let d = Dispatcher.create m.Machine.clock in
  let s = Sched.create ~intr:m.Machine.intr m.Machine.sim d in
  let tr = Trace.of_clock m.Machine.clock in
  Trace.enable tr;
  let fz =
    Sched_fuzz.attach ~cpus:(Array.to_list m.Machine.cpus) ~dispatcher:d
      ~mean_period:200 ~seed s in
  for i = 1 to 8 do
    let w = Sched.spawn s ~name:(Printf.sprintf "w%d" i) (fun () ->
      for _ = 1 to 5 do
        Clock.charge m.Machine.clock (50 * i);
        Sched.yield s;
        Sched.sleep_us s (float_of_int i *. 1.5)
      done) in
    if i <= 2 then Sched.set_affinity s w (Some i)
  done;
  Sched.run s;
  let st = Sched_fuzz.stats fz in
  Sched_fuzz.detach fz;
  let recs = Trace.records tr in
  let hash =
    List.fold_left
      (fun acc r ->
        let acc = (acc * 1000003) lxor r.Trace.ts in
        let acc = (acc * 1000003) lxor Hashtbl.hash r.Trace.cat in
        let acc = (acc * 1000003) lxor Hashtbl.hash r.Trace.name in
        (* The args carry each switch's CPU tag: which CPU ran what. *)
        (acc * 1000003) lxor Hashtbl.hash r.Trace.args)
      0x9e3779b9 recs
    land max_int in
  { s_records = List.length recs; s_hash = hash;
    s_now = Clock.now m.Machine.clock;
    s_decisions = st.Sched_fuzz.decisions;
    s_cpu_decisions = st.Sched_fuzz.cpu_decisions;
    s_preempts = st.Sched_fuzz.injected_preempts;
    s_steals = (Sched.stats s).Sched.steals }

(* (seed, digest captured on the three-hook scheduler) *)
let smp_golden =
  [
    (3, { s_records = 1112; s_hash = 0x2aa148109f5a1a01; s_now = 57050;
          s_decisions = 88; s_cpu_decisions = 97; s_preempts = 152;
          s_steals = 10 });
    (17, { s_records = 1112; s_hash = 0x5f96ffb781f62ab; s_now = 51785;
           s_decisions = 88; s_cpu_decisions = 100; s_preempts = 145;
           s_steals = 13 });
    (41, { s_records = 1112; s_hash = 0x37f07242fcb1c59d; s_now = 51804;
           s_decisions = 88; s_cpu_decisions = 106; s_preempts = 139;
           s_steals = 15 });
  ]

let test_smp_golden_digests () =
  List.iter
    (fun (seed, want) ->
      let got = smp_digest_of seed in
      let tag fmt = Printf.sprintf fmt seed in
      check int (tag "seed %d records") want.s_records got.s_records;
      check int (tag "seed %d trace hash") want.s_hash got.s_hash;
      check int (tag "seed %d final clock") want.s_now got.s_now;
      check int (tag "seed %d decisions") want.s_decisions got.s_decisions;
      check int (tag "seed %d CPU decisions") want.s_cpu_decisions
        got.s_cpu_decisions;
      check int (tag "seed %d preempts") want.s_preempts got.s_preempts;
      check int (tag "seed %d steals") want.s_steals got.s_steals)
    smp_golden

let () =
  Alcotest.run "spin_engine"
    [
      ( "fuzz replay equivalence",
        [
          Alcotest.test_case "golden digests match the heap engine" `Quick
            test_golden_digests;
          Alcotest.test_case "same seed, same trace" `Quick
            test_replay_deterministic;
          Alcotest.test_case "4-CPU golden digests pin CPU and steal draws"
            `Quick test_smp_golden_digests;
        ] );
    ]

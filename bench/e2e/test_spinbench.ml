(* The benchmark's own checks, run by `dune runtest`: exact percentiles,
   and every workload at smoke size three times -- plain, with
   SPIN_CPUS=4 in the environment, and traced -- with every output
   check passing and the virtual end-to-end metrics and host words per
   operation bit-identical across the three. *)

open E2e

let test_nearest_rank () =
  let s = Stats.samples () in
  for v = 1000 downto 1 do Stats.add s v done;
  let sorted = Stats.to_sorted s in
  Alcotest.(check int) "p50 of 1..1000" 500 (Stats.nearest_rank sorted 50);
  Alcotest.(check int) "p99 of 1..1000" 990 (Stats.nearest_rank sorted 99);
  Alcotest.(check int) "p100 of 1..1000" 1000 (Stats.nearest_rank sorted 100);
  Alcotest.(check int) "p1 of 1..1000" 10 (Stats.nearest_rank sorted 1);
  Alcotest.(check int) "p99 of one sample" 7 (Stats.nearest_rank [| 7 |] 99)

(* The metrics that must not move with the CPU-count default or with
   tracing: everything virtual, plus the allocation count. *)
let invariant = [ "ops_per_s"; "p50_us"; "p99_us"; "host_words_per_op" ]

let pick (r : Harness.result) =
  (r.attempted, r.failed,
   List.filter_map
     (fun (m : Harness.metric) ->
        if List.mem m.m_name invariant then Some (m.m_name, Int64.bits_of_float m.value)
        else None)
     r.e2e)

let smoke (wl : Harness.workload) ~cpus ~traced =
  Unix.putenv "SPIN_CPUS" cpus;
  let r = Harness.run wl ~seed:7 ~seconds:10 ~smoke:true ~traced in
  Unix.putenv "SPIN_CPUS" "1";
  List.iter print_endline r.notes;
  Alcotest.(check bool) (wl.name ^ ": every check passed") true r.correct;
  Alcotest.(check bool) (wl.name ^ ": operations ran") true (r.attempted > 0);
  if traced then
    Alcotest.(check bool) (wl.name ^ ": per-layer metrics reported") true (r.layers <> []);
  pick r

let test_deterministic (wl : Harness.workload) () =
  let testable = Alcotest.(triple int int (list (pair string int64))) in
  (* Some library code allocates a few words on its first use in a
     process; a spinbench run is one process, so compare later runs. *)
  ignore (smoke wl ~cpus:"1" ~traced:false);
  let plain = smoke wl ~cpus:"1" ~traced:false in
  Alcotest.check testable "SPIN_CPUS=4 changes nothing" plain
    (smoke wl ~cpus:"4" ~traced:false);
  Alcotest.check testable "tracing changes nothing" plain
    (smoke wl ~cpus:"1" ~traced:true)

let () =
  Alcotest.run "spinbench"
    [ ("percentiles", [ Alcotest.test_case "nearest rank" `Quick test_nearest_rank ]);
      ("smoke",
       List.map
         (fun (wl : Harness.workload) ->
            Alcotest.test_case (wl.name ^ " deterministic and checked") `Quick
              (test_deterministic wl))
         Workloads.all) ]

(* The gate's own checks: the +-10% comparison in both directions, the
   rows it must refuse to pass silently (missing, unreferenced), a
   failed requirement failing the run, and the spin-bench/1 JSON round
   trip of a row that carries its gate direction. *)

open Report

let row ?gate ?(experiment = "exp") name value =
  { experiment; name; value; unit_ = "us"; gate }

let verdicts ~reference current =
  List.map
    (function
      | Within _ -> "ok"
      | Regressed _ -> "FAIL"
      | Missing _ -> "MISSING"
      | Unreferenced _ -> "UNREFERENCED")
    (compare ~reference current)

let check_verdicts msg expected ~reference current =
  Alcotest.(check (list string)) msg expected (verdicts ~reference current)

let test_ceiling () =
  let reference = [ row ~gate:Ceiling "latency" 100. ] in
  check_verdicts "9.9% slower passes" [ "ok" ] ~reference
    [ row ~gate:Ceiling "latency" 109.9 ];
  check_verdicts "10.1% slower fails" [ "FAIL" ] ~reference
    [ row ~gate:Ceiling "latency" 110.1 ];
  check_verdicts "any improvement passes" [ "ok" ] ~reference
    [ row ~gate:Ceiling "latency" 1. ]

let test_floor () =
  let reference = [ row ~gate:Floor "speedup" 100. ] in
  check_verdicts "9.9% lower passes" [ "ok" ] ~reference
    [ row ~gate:Floor "speedup" 90.1 ];
  check_verdicts "10.1% lower fails" [ "FAIL" ] ~reference
    [ row ~gate:Floor "speedup" 89.9 ];
  check_verdicts "any improvement passes" [ "ok" ] ~reference
    [ row ~gate:Floor "speedup" 1000. ]

let test_missing_unreferenced () =
  let gated = row ~gate:Ceiling "latency" 100. in
  check_verdicts "gated reference row not measured" [ "MISSING" ]
    ~reference:[ gated ] [];
  check_verdicts "same name in another experiment" [ "MISSING"; "UNREFERENCED" ]
    ~reference:[ gated ] [ row ~gate:Ceiling ~experiment:"other" "latency" 100. ];
  check_verdicts "gated row without a reference" [ "UNREFERENCED" ]
    ~reference:[] [ gated ];
  check_verdicts "direction changed" [ "MISSING"; "UNREFERENCED" ]
    ~reference:[ gated ] [ row ~gate:Floor "latency" 100. ];
  check_verdicts "ungated rows are ignored on both sides" []
    ~reference:[ row "trend" 1. ] [ row "trend" 50.; row "new" 2. ]

let test_require () =
  Alcotest.(check int) "nothing failed yet" 0 (exit_code ());
  require ~name:"holds" true;
  Alcotest.(check int) "a held requirement passes" 0 (exit_code ());
  require ~name:"broken" false;
  Alcotest.(check int) "a failed requirement fails the run" 1 (exit_code ())

let test_round_trip () =
  let path = "report_round_trip.json" in
  set_json path;
  experiment "round trip";
  metric ~gate:Ceiling ~name:"p99 \"quoted\"\\path" 1013.66;
  metric ~gate:Floor ~unit_:"x" ~name:"speedup 4cpu" 2.92494;
  metric ~unit_:"count" ~name:"ungated" 310000.;
  write_json ();
  let read = read_json path in
  Sys.remove path;
  Alcotest.(check bool) "rows, units and gates survive" true
    (read = List.rev !metrics)

let () =
  Alcotest.run "bench_report"
    [ ("compare",
       [ Alcotest.test_case "ceiling at +-10%" `Quick test_ceiling;
         Alcotest.test_case "floor at +-10%" `Quick test_floor;
         Alcotest.test_case "missing and unreferenced" `Quick
           test_missing_unreferenced ]);
      ("failures", [ Alcotest.test_case "require" `Quick test_require ]);
      ("json", [ Alcotest.test_case "round trip" `Quick test_round_trip ]) ]

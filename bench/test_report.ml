(* The gate's own checks: virtual rows held exactly, host ceilings at
   +10%, host trend rows ignored, the rows it must refuse to pass
   silently (missing, unreferenced), a failed requirement failing the
   run, and the spin-bench/1 JSON round trip of values and clocks. *)

open Report

let row ?(clock = Virtual) ?(experiment = "exp") name value =
  { experiment; name; value; unit_ = "us"; clock }

let ceiling = Host Ceiling
let trend = Host Trend

let verdicts ~reference current =
  List.map
    (function
      | Pass _ -> "ok"
      | Fail _ -> "FAIL"
      | Missing _ -> "MISSING"
      | Unreferenced _ -> "UNREFERENCED")
    (compare ~reference current)

let check_verdicts msg expected ~reference current =
  Alcotest.(check (list string)) msg expected (verdicts ~reference current)

let test_exact () =
  let v = 530.3609022556391 in
  let reference = [ row "latency" v ] in
  check_verdicts "the same float passes" [ "ok" ] ~reference [ row "latency" v ];
  check_verdicts "one ulp more fails" [ "FAIL" ] ~reference
    [ row "latency" (Float.succ v) ];
  check_verdicts "one ulp less fails too" [ "FAIL" ] ~reference
    [ row "latency" (Float.pred v) ]

let test_ceiling () =
  let reference = [ row ~clock:ceiling "words" 100. ] in
  check_verdicts "9.9% more passes" [ "ok" ] ~reference
    [ row ~clock:ceiling "words" 109.9 ];
  check_verdicts "10.1% more fails" [ "FAIL" ] ~reference
    [ row ~clock:ceiling "words" 110.1 ];
  check_verdicts "any improvement passes" [ "ok" ] ~reference
    [ row ~clock:ceiling "words" 1. ]

let test_missing_unreferenced () =
  let pinned = row "latency" 100. in
  check_verdicts "reference row not measured" [ "MISSING" ]
    ~reference:[ pinned ] [];
  check_verdicts "same name in another experiment" [ "MISSING"; "UNREFERENCED" ]
    ~reference:[ pinned ] [ row ~experiment:"other" "latency" 100. ];
  check_verdicts "row without a reference" [ "UNREFERENCED" ]
    ~reference:[] [ pinned ];
  check_verdicts "clock changed" [ "MISSING"; "UNREFERENCED" ]
    ~reference:[ pinned ] [ row ~clock:ceiling "latency" 100. ];
  check_verdicts "host trend rows are ignored on both sides" []
    ~reference:[ row ~clock:trend "rate" 1.; row ~clock:trend "gone" 1. ]
    [ row ~clock:trend "rate" 50.; row ~clock:trend "new" 2. ]

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
  metric ~name:"p99 \"quoted\"\\path" 530.3609022556391;
  metric ~unit_:"x" ~name:"needs 17 digits" (0.1 +. 0.2);
  host ?gate:(Some Ceiling) ~unit_:"words" ~name:"minor words" 16094.;
  host ~unit_:"ev/s" ~name:"rate" 1245540.25;
  write_json ();
  let read = read_json path in
  Sys.remove path;
  Alcotest.(check bool) "values, units and clocks survive bit for bit" true
    (read = List.rev !metrics)

let () =
  Alcotest.run "bench_report"
    [ ("compare",
       [ Alcotest.test_case "virtual rows exact" `Quick test_exact;
         Alcotest.test_case "ceiling at +-10%" `Quick test_ceiling;
         Alcotest.test_case "missing and unreferenced" `Quick
           test_missing_unreferenced ]);
      ("failures", [ Alcotest.test_case "require" `Quick test_require ]);
      ("json", [ Alcotest.test_case "round trip" `Quick test_round_trip ]) ]

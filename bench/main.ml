(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (section 5) against this reproduction.

     dune exec bench/main.exe                -- everything
     dune exec bench/main.exe table4         -- one experiment
     dune exec bench/main.exe -- --json OUT.json table2
                                             -- also write metrics as JSON
     dune exec bench/main.exe -- --check bench/reference.json load ...
                                             -- gate against the reference

   Virtual times are microseconds on the simulated 133 MHz Alpha; see
   DESIGN.md for the cost model and EXPERIMENTS.md for the recorded
   paper-vs-measured results. *)

let experiments = [
  ("table1", "kernel component sizes", B_sizes.table1);
  ("table2", "protected communication", B_micro.table2);
  ("table3", "thread management", B_micro.table3);
  ("table4", "virtual memory operations", B_micro.table4);
  ("table5", "network latency and bandwidth", B_net.table5);
  ("table6", "protocol forwarding", B_net.table6);
  ("table7", "extension sizes", B_sizes.table7);
  ("figure5", "protocol graph", B_net.figure5);
  ("figure6", "video server utilization", B_video.figure6);
  ("dispatcher", "dispatcher scalability (5.5)", B_extra.dispatcher_scaling);
  ("gc", "automatic storage management (5.5)", B_extra.gc_impact);
  ("web", "web server latency (5.4)", B_web.web);
  ("load", "HTTP load scaling over the zero-copy path (5.4)", B_load.run);
  ("smp", "SMP scaling of the HTTP ramp vs CPUs per host", B_smp.run);
  ("mem", "memory pressure and reclamation (5.2)", B_mem.run);
  ("swap", "live extension hot-swap under load", B_swap.run);
  ("ablation", "design-choice ablations", B_ablation.run);
  ("verifier", "install-time verification vs guarded dispatch", B_verifier.run);
  ("engine", "host-side engine throughput", B_engine.run);
  ("fuzz", "schedule fuzzing with seeded replay", B_fuzz.run);
]

let usage () =
  print_endline "usage: main.exe [--json FILE] [--check REF] [experiment...]";
  print_endline "experiments:";
  List.iter (fun (name, desc, _) -> Printf.printf "  %-12s %s\n" name desc)
    experiments;
  print_endline "  all          every experiment except fuzz";
  print_endline "  --json FILE  also write measured metrics to FILE";
  print_endline "  --check REF  fail unless every virtual row equals REF's and host";
  print_endline "               ceilings stay within 10% of REF's";
  print_endline "  --seeds N    fuzz: run seeds 1..N (default 50)";
  print_endline "  --replay S   fuzz: replay one seed deterministically";
  print_endline "  --cpus N     fuzz: N-CPU hosts (default 1 and 4);";
  print_endline "               smp: ramp 1,2,..,N (default 8)"

let run_one (name, _, f) =
  Report.experiment name;
  f ()

let run_all () =
  List.iter
    (fun ((name, _, _) as e) ->
      if name <> "fuzz" then run_one e)
    experiments

let () =
  let die msg = print_endline msg; usage (); exit 1 in
  let positive flag n =
    match int_of_string_opt n with
    | Some n when n > 0 -> n
    | Some _ | None -> die (flag ^ " needs a positive integer") in
  let reference = ref None in
  let rec parse = function
    | "--json" :: path :: rest -> Report.set_json path; parse rest
    | "--check" :: path :: rest ->
      reference := Some (Report.read_json path); parse rest
    | "--seeds" :: n :: rest -> B_fuzz.seeds := positive "--seeds" n; parse rest
    | "--replay" :: s :: rest ->
      (match int_of_string_opt s with
       | Some s -> B_fuzz.replay := Some s; parse rest
       | None -> die "--replay needs an integer seed")
    | "--cpus" :: n :: rest ->
      let n = positive "--cpus" n in
      B_fuzz.cpus := Some n;
      B_smp.max_cpus := n;
      parse rest
    | [ ("--json" | "--check" | "--seeds" | "--replay" | "--cpus") as flag ] ->
      die (flag ^ " needs an argument")
    | arg :: rest -> arg :: parse rest
    | [] -> [] in
  (match parse (List.tl (Array.to_list Sys.argv)) with
   | [] | [ "all" ] -> run_all ()
   | [ "help" ] | [ "--help" ] -> usage ()
   | names ->
     List.iter
       (fun name ->
         match List.find_opt (fun (n, _, _) -> n = name) experiments with
         | Some e -> run_one e
         | None -> die (Printf.sprintf "unknown experiment %S" name))
       names);
  Report.write_json ();
  Option.iter (fun reference -> Report.check ~reference) !reference;
  exit (Report.exit_code ())

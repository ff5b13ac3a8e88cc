(* spinbench: one workload, one seed, one process.

     spinbench.exe --workload web --seed 1 --seconds 10 --trace 0

   Prints every metric by name with its unit, then, as the last line of
   standard output, one JSON object:
     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
   holding the end-to-end metrics (--trace 0) or the per-layer metrics
   of a traced run (--trace 1, which also writes a Chrome trace of one
   round to --trace-dir). Exits 1 when an output check, an end-of-round
   audit or the tracing-neutrality check fails. See README.md. *)

let usage () =
  prerr_endline
    "usage: spinbench.exe --workload NAME [--seed N] [--seconds S] \
     [--trace 0|1] [--trace-dir DIR] [--smoke]";
  prerr_endline
    ("workloads: "
     ^ String.concat ", " (List.map (fun (w : E2e.Harness.workload) -> w.name)
                             E2e.Workloads.all));
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let traced = ref false and smoke = ref false in
  let trace_dir = ref "spinbench-traces" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> traced := v = "1"; parse rest
    | "--trace-dir" :: v :: rest -> trace_dir := v; parse rest
    | "--smoke" :: rest -> smoke := true; parse rest
    | _ -> usage () in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let wl = match E2e.Workloads.find !workload with Some w -> w | None -> usage () in
  if !seconds < 1 then usage ();
  let res =
    try
      E2e.Harness.run wl ~seed:!seed ~seconds:!seconds ~smoke:!smoke ~traced:!traced
        ?trace_dir:(if !traced then Some !trace_dir else None)
    with e ->
      Printf.eprintf "spinbench: %s failed: %s\n" wl.name (Printexc.to_string e);
      exit 1 in
  let open E2e.Harness in
  let show title ms =
    Printf.printf "%s\n" title;
    List.iter (fun m -> Printf.printf "  %-34s %18.6f %s\n" m.m_name m.value m.unit_) ms in
  Printf.printf "workload %s  seed %d  seconds %d%s\n" wl.name !seed !seconds
    (if !smoke then "  (smoke)" else "");
  show "end-to-end" (res.e2e @ res.extra);
  if !traced then show "per-layer (traced run)" res.layers;
  List.iter (fun n -> Printf.printf "CHECK FAILED: %s\n" n) res.notes;
  let reported = if !traced then res.layers else res.e2e in
  let finite = List.for_all (fun m -> Float.is_finite m.value) reported in
  let correct = res.correct && finite in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct res.attempted res.failed
    (String.concat ", "
       (List.map
          (fun m ->
             Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.m_name
               (if Float.is_finite m.value then m.value else 0.)
               m.unit_)
          reported));
  if not correct then exit 1

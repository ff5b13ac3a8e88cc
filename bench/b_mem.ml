(* Memory pressure and reclamation (section 5.2): the in-kernel web
   server keeps fetching from its page-backed caches while a hog
   strand allocates past the free pool. With the reclamation protocol
   on, allocation pressure drains the caches' coldest pages (and the
   pageout daemon stays ahead of demand); with it off, the same
   workload starves — the ablation the paper's extensibility argument
   predicts.

     dune exec bench/main.exe mem
     dune exec bench/main.exe -- --json BENCH_mem.json mem *)

open Spin_net
module Clock = Spin_machine.Clock
module Trace = Spin_machine.Trace
module Sched = Spin_sched.Sched
module Phys_addr = Spin_vm.Phys_addr
module Pageout = Spin_vm.Pageout

let n_files = 8
let file_bytes = 6 * 1024
let requests = 320

(* A fetch succeeds when the whole file came back, headers on top. *)
let fetch w ~path = B_web.get ~path w > file_bytes

type outcome = {
  p50 : float;
  p99 : float;
  hit_rate : float;
  reclaims : int;
  released : int;                       (* by the pageout daemon *)
  hog_oom : int;                        (* hog allocations refused *)
  fetch_failures : int;                 (* short or failed responses *)
  degraded : int;                       (* cache inserts refused *)
  reclaim_span : Trace.summary option;  (* the vm.reclaim aggregate *)
}

(* One run: [hog] turns the allocation antagonist on; [reclaim] is
   the ablation switch for the whole reclamation protocol. *)
let run_case ~hog ~reclaim =
  (* A small server: 2 MB of physical memory (256 pages) so cache
     capacity and hog pressure meet quickly. *)
  let files =
    List.init n_files (fun i -> (Printf.sprintf "f%d.html" i, file_bytes)) in
  let w =
    B_web.fixture ~mem_mb:2 ~cache_blocks:512 ~cache_bytes:(192 * 1024) ~files
      () in
  let clock = w.B_web.clock and client = w.B_web.client
  and server = w.B_web.server in
  let phys = server.Host.phys in
  if not reclaim then Phys_addr.set_reclaim_enabled phys false;
  let tr = Trace.of_clock clock in
  Trace.enable tr;
  let stop = ref false in
  let hog_oom = ref 0 in
  let hog_pages = ref [] in
  if hog then
    ignore (Sched.spawn server.Host.sched ~name:"hog" (fun () ->
      (* Phase 1: empty the free pool outright. Phase 2: keep
         allocating (and holding) past it for the rest of the run. *)
      while not !stop && Phys_addr.free_pages phys > 4 do
        hog_pages :=
          Phys_addr.allocate phys ~owner:"hog" ~bytes:Spin_machine.Addr.page_size
          :: !hog_pages;
        Sched.sleep_us server.Host.sched 1.
      done;
      while not !stop do
        (match
           Phys_addr.allocate phys ~owner:"hog" ~bytes:Spin_machine.Addr.page_size
         with
         | p -> hog_pages := p :: !hog_pages
         | exception Phys_addr.Out_of_memory -> incr hog_oom);
        Sched.sleep_us server.Host.sched 20_000.
      done));
  let pd =
    if hog && reclaim then begin
      let pd = Pageout.create ~low_water:16 ~high_water:32 server.Host.sched
          phys in
      Pageout.start pd;
      Some pd
    end else None in
  let fetch_failures = ref 0 in
  let latencies = E2e.Stats.samples () in
  ignore (Sched.spawn client.Host.sched ~name:"driver" (fun () ->
    (* Let the hog empty the pool first, then warm the caches under
       pressure (the warm pass is not measured). *)
    Sched.sleep_us client.Host.sched 2_000.;
    for i = 0 to n_files - 1 do
      ignore (fetch w ~path:(Printf.sprintf "f%d.html" i))
    done;
    for r = 0 to requests - 1 do
      let path = Printf.sprintf "f%d.html" (r mod n_files) in
      let t0 = Clock.now clock in
      if not (fetch w ~path) then incr fetch_failures;
      E2e.Stats.add latencies (Clock.now clock - t0)
    done;
    stop := true;
    Option.iter Pageout.stop pd));
  B_web.run w;
  {
    p50 = B_web.percentile_us w latencies 50;
    p99 = B_web.percentile_us w latencies 99;
    hit_rate =
      Spin_fs.Cache_stats.hit_rate (Spin_fs.File_cache.stats w.B_web.file_cache);
    reclaims = Phys_addr.reclaims phys;
    released = (match pd with Some pd -> Pageout.released pd | None -> 0);
    hog_oom = !hog_oom;
    fetch_failures = !fetch_failures;
    degraded =
      Spin_fs.File_cache.degraded w.B_web.file_cache
      + Spin_fs.Block_cache.degraded w.B_web.block_cache;
    reclaim_span = Trace.summary tr ~key:"vm.reclaim";
  }

let run () =
  Report.header
    "Memory pressure: page-backed caches under an allocation hog (5.2)";
  let control = run_case ~hog:false ~reclaim:true in
  let pressure = run_case ~hog:true ~reclaim:true in
  let ablation = run_case ~hog:true ~reclaim:false in
  Printf.printf "%-26s %10s %10s %8s %9s %8s %8s\n"
    "case" "p50 (us)" "p99 (us)" "hit%" "reclaims" "hog-oom" "failed";
  let row name o =
    Printf.printf "%-26s %10.0f %10.0f %8.1f %9d %8d %8d\n"
      name o.p50 o.p99 (100. *. o.hit_rate) o.reclaims o.hog_oom
      o.fetch_failures in
  row "no hog (control)" control;
  row "hog + reclamation" pressure;
  row "hog, reclamation off" ablation;
  let ratio = ablation.p99 /. pressure.p99 in
  Printf.printf
    "  pageout daemon released %d pages ahead of demand\n\
    \  caches refused %d inserts under the no-reclaim ablation (%d with)\n\
    \  ablation p99 degradation: %.1fx (>= 2x required)\n"
    pressure.released ablation.degraded pressure.degraded ratio;
  (match pressure.reclaim_span with
   | Some s ->
     Printf.printf
       "  reclaim path: %d reclaims traced, mean %.1f us, max %.1f us\n"
       s.Trace.count s.Trace.mean_us s.Trace.max_us
   | None -> print_endline "  reclaim path: no spans traced");
  Report.note
    "  The fetch loop never sees Out_of_memory in any case: with the\n\
    \  protocol on, pressure drains the caches' coldest pages; with it\n\
    \  off, the caches shed load by serving uncached straight from\n\
    \  disk -- which is exactly the latency cliff the ablation shows.\n";
  let m case o =
    Report.metric ~unit_:"us" ~name:(Printf.sprintf "fetch p50 %s" case) o.p50;
    Report.metric ~unit_:"us" ~name:(Printf.sprintf "fetch p99 %s" case) o.p99;
    Report.metric ~unit_:"%" ~name:(Printf.sprintf "hit rate %s" case)
      (100. *. o.hit_rate);
    Report.metric ~unit_:"count" ~name:(Printf.sprintf "fetch failures %s" case)
      (float_of_int o.fetch_failures);
    Report.require ~name:("0 fetch failures " ^ case) (o.fetch_failures = 0);
    Report.metric ~unit_:"count" ~name:(Printf.sprintf "hog oom %s" case)
      (float_of_int o.hog_oom) in
  m "control" control;
  m "pressure" pressure;
  m "ablation" ablation;
  Report.metric ~unit_:"count" ~name:"reclaims pressure"
    (float_of_int pressure.reclaims);
  Report.metric ~unit_:"count" ~name:"pageout released"
    (float_of_int pressure.released);
  Report.metric ~unit_:"x" ~name:"ablation p99 ratio" ratio;
  Report.require ~name:"ablation p99 ratio >= 2" (ratio >= 2.);
  (match pressure.reclaim_span with
   | Some s ->
     Report.metric ~name:"reclaim mean us" s.Trace.mean_us;
     Report.metric ~name:"reclaim max us" s.Trace.max_us
   | None -> ())

(* mem-pressure: VM reclaim, cache misses and disk under an allocation
   hog (the bench/ mem experiment's fixture). A 2 MB, 1-CPU server over
   Lance serves 64 files of 5-7 KB (one page each), picked by Zipf(0.9),
   through a 192 KB file cache, so the working set does not fit. One
   client fetches in a closed loop with a think time of 0-1 ms (a
   second client would only interleave two files' reads on the disk).
   The hog first drains the free pool, then keeps taking a page every
   20 ms while the pageout daemon stays ahead of it; the hog's
   allocations run alongside the fetch loop's reads, so a gain for one
   that costs the other shows. *)

open Spin_net
module Clock = Spin_machine.Clock
module Addr = Spin_machine.Addr
module Sched = Spin_sched.Sched
module Phys_addr = Spin_vm.Phys_addr
module Pageout = Spin_vm.Pageout
module Dispatcher = Spin_core.Dispatcher

let n_files = 64
let popularity = Inputs.zipf ~n:n_files ~s:0.9
(* Popular files are the small ones, in 32-byte steps, so hits of
   neighbouring files take neighbouring times. *)
let sizes = Array.init n_files (fun k -> 5 * 1024 + (k * 2048 / (n_files - 1)))

let p_allocate = Probe.point "phys_addr" "allocate"

(* Second chance, as the host installs it, over every page but the
   buffer cache's. A buffer-cache page reclaimed while a reader waits on
   the disk for another block of it makes Block_cache.read raise
   Capability.Revoked, which kills the HTTP request strand and leaves
   its client waiting forever (about one round in sixty); keeping
   file-system metadata resident avoids that until it is fixed. *)
let spare_buffer_cache phys (_ : Phys_addr.victim_request) =
  let rec scan = function
    | [] -> None
    | p :: rest ->
      if Phys_addr.page_owner p = Some "BlockCache" then scan rest
      else if Phys_addr.referenced phys p then begin
        Phys_addr.clear_referenced phys p;
        scan rest
      end
      else Some p in
  match scan (List.rev (Phys_addr.live_pages phys)) with
  | Some p -> Some p
  | None ->
    List.find_opt (fun p -> Phys_addr.page_owner p <> Some "BlockCache")
      (List.rev (Phys_addr.live_pages phys))

let setup (r : Fixture.round) =
  let files = Array.map (Inputs.bytes r.rng) sizes in
  let requests = Inputs.exact_mix r.rng popularity r.size in
  let think = Inputs.uniform r.rng ~lo:0 ~hi:999 r.size in
  let p = Fixture.pair ~cpus:1 ~kind:Spin_machine.Nic.Lance ~mem_mb:2 () in
  let w = Fixture.web_server ~cache_bytes:(192 * 1024) ~cache_blocks:512 p files in
  let server = p.Fixture.server in
  let phys = server.Host.phys in
  ignore (Dispatcher.uninstall_installer server.Host.dispatcher ~installer:"SecondChance");
  (match
     Dispatcher.install (Phys_addr.select_victim_event phys) ~installer:"SpareBufferCache"
       (spare_buffer_cache phys)
   with
   | Ok _ -> ()
   | Error e -> failwith ("mem-pressure: " ^ Dispatcher.install_error_to_string e));
  let pageout = Pageout.create ~low_water:16 ~high_water:32 server.Host.sched phys in
  Pageout.start pageout;
  let held = ref [] and warm_ok = ref true and warmed = ref false in
  let stop = ref false in
  let allocate () =
    Probe.call p.Fixture.clock p_allocate (fun () ->
        match Phys_addr.allocate phys ~owner:"hog" ~bytes:Addr.page_size with
        | page -> held := page :: !held
        | exception Phys_addr.Out_of_memory -> ()) in
  (* Set-up: the hog empties the free pool, then every file is fetched
     once so the cache starts full. *)
  ignore (Sched.spawn server.Host.sched ~name:"hog-fill" (fun () ->
    while Phys_addr.free_pages phys > 4 do
      allocate ();
      Sched.sleep_us server.Host.sched 1.
    done));
  ignore (Sched.spawn p.Fixture.client.Host.sched ~name:"warm" (fun () ->
    Sched.sleep_us p.Fixture.client.Host.sched 2_000.;
    for i = 0 to n_files - 1 do
      if not (Fixture.fetch_file w ~rid:0 i) then warm_ok := false
    done;
    warmed := true));
  Host.run_all ~until:(fun () -> !warmed) (Fixture.hosts p);
  if not !warm_ok then failwith "mem-pressure: warm-up fetch returned a wrong body";
  let go () =
    Fixture.watch_runnable (Fixture.scheds p);
    ignore (Sched.spawn server.Host.sched ~name:"hog" (fun () ->
      while not !stop do
        allocate ();
        Sched.sleep_us server.Host.sched 20_000.
      done));
    let t_start = Clock.now p.Fixture.clock and finished = ref false in
    ignore (Sched.spawn p.Fixture.client.Host.sched ~name:"fetch" (fun () ->
      Array.iteri
        (fun k i ->
           Sched.sleep_us p.Fixture.client.Host.sched (float_of_int think.(k));
           let t0 = Clock.now p.Fixture.clock in
           let ok = Fixture.fetch_file w ~rid:k i in
           Fixture.finish r ~ok (Clock.now p.Fixture.clock - t0))
        requests;
      r.elapsed <- Clock.now p.Fixture.clock - t_start;
      finished := true;
      stop := true;
      Pageout.stop pageout));
    (* A fetch takes ~20 ms of virtual time; 100 ms each is the limit. *)
    Fixture.run_bounded p r ~t_start ~limit_us:(float_of_int r.size *. 100_000.)
      ~finished:(fun () -> !finished)
      ~give_up:(fun () -> stop := true; Pageout.stop pageout) in
  let read () = Fixture.web_counters w () @ [ ("pageout.released", Pageout.released pageout) ] in
  { Fixture.clock = p.Fixture.clock; read; go; audit = Fixture.audit_pair p }

(* Tests for the buffer cache, the on-disk file system, and the web
   server's hybrid file cache. *)

open Alcotest
open Spin_fs
module Machine = Spin_machine.Machine
module Disk = Spin_machine.Disk_dev
module Clock = Spin_machine.Clock
module Dispatcher = Spin_core.Dispatcher
module Sched = Spin_sched.Sched
module Phys_addr = Spin_vm.Phys_addr

(* Everything runs in strand context; this helper boots a machine and
   runs the body as a kernel thread. The caches are page-backed, so
   the fixture also brings up the physical address service with the
   production replacement policy. *)
let with_fs_machine body =
  let m = Machine.create ~name:"fstest" ~mem_mb:4 () in
  let d = Dispatcher.create m.Machine.clock in
  let sched = Sched.create m.Machine.sim d in
  let phys = Phys_addr.create m d in
  ignore (Spin_vm.Reclaim_policy.install_second_chance phys);
  let disk = Machine.add_disk ~blocks:8192 m in
  let cache = Block_cache.create ~phys m sched disk in
  let failure = ref None in
  ignore (Sched.spawn sched ~name:"fs-test" (fun () ->
    try body m sched disk cache phys with e -> failure := Some e));
  Sched.run sched;
  match !failure with Some e -> raise e | None -> ()

(* ------------------------------------------------------------------ *)
(* Block cache                                                        *)
(* ------------------------------------------------------------------ *)

let test_block_cache_roundtrip () =
  with_fs_machine (fun _ _ _ cache _ ->
    let data = Bytes.make Disk.block_size 'z' in
    Block_cache.write cache ~block:7 data;
    check bytes "read back" data (Block_cache.read cache ~block:7))

let test_block_cache_hits () =
  with_fs_machine (fun _ _ _ cache _ ->
    ignore (Block_cache.read cache ~block:3);      (* miss *)
    ignore (Block_cache.read cache ~block:3);      (* hit *)
    ignore (Block_cache.read cache ~block:3);      (* hit *)
    let st = Block_cache.stats cache in
    check int "one miss" 1 st.Cache_stats.misses;
    check int "two hits" 2 st.Cache_stats.hits;
    check bool "pages resident" true (st.Cache_stats.bytes_cached > 0))

let test_block_cache_uncached_bypasses () =
  with_fs_machine (fun _ _ _ cache _ ->
    let buf = Bytes.create Disk.block_size in
    Block_cache.read_uncached cache ~block:9 buf ~pos:0 ~len:Disk.block_size;
    Block_cache.read_uncached cache ~block:9 buf ~pos:0 ~len:Disk.block_size;
    check int "no hits" 0 (Block_cache.stats cache).Cache_stats.hits)

let test_block_cache_hit_is_fast () =
  with_fs_machine (fun m _ _ cache _ ->
    ignore (Block_cache.read cache ~block:5);
    let hit = Clock.stamp m.Machine.clock (fun () ->
      ignore (Block_cache.read cache ~block:5)) in
    (* A hit is a memory copy (~microseconds); a miss is a disk access
       (~milliseconds). *)
    check bool "hit under 10us" true
      (Spin_machine.Cost.cycles_to_us m.Machine.cost hit < 10.))

let test_block_cache_survives_reclaim () =
  with_fs_machine (fun _ _ _ cache phys ->
    let data = Bytes.make Disk.block_size 'q' in
    Block_cache.write cache ~block:11 data;
    ignore (Block_cache.read cache ~block:11);     (* miss: now cached *)
    ignore (Block_cache.read cache ~block:11);     (* hit *)
    (* Pressure takes the cache's page... *)
    check bool "a page was reclaimed" true
      (Phys_addr.force_reclaim phys <> None);
    check int "cache observed the loss" 1
      (Block_cache.stats cache).Cache_stats.reclaims;
    check int "nothing resident" 0
      (Block_cache.stats cache).Cache_stats.bytes_cached;
    (* ...and the next read simply refetches from disk. *)
    check bytes "data intact after reclaim" data
      (Block_cache.read cache ~block:11);
    ignore (Block_cache.read cache ~block:11);
    check int "cache works again" 2 (Block_cache.stats cache).Cache_stats.hits)

(* Regression: concurrent readers of the same in-flight block used to
   overwrite each other's pending registration, so the completion
   interrupt woke only the last to register and the rest slept forever.
   Needs its own fixture — [with_fs_machine] runs the body as a single
   strand, and this bug only exists between strands. *)
let test_block_cache_concurrent_same_block () =
  let m = Machine.create ~name:"fstest" ~mem_mb:4 () in
  let d = Dispatcher.create m.Machine.clock in
  let sched = Sched.create m.Machine.sim d in
  let phys = Phys_addr.create m d in
  ignore (Spin_vm.Reclaim_policy.install_second_chance phys);
  let disk = Machine.add_disk ~blocks:8192 m in
  let cache = Block_cache.create ~phys m sched disk in
  let completed = ref 0 in
  for i = 1 to 3 do
    ignore (Sched.spawn sched ~name:(Printf.sprintf "reader-%d" i) (fun () ->
      ignore (Block_cache.read cache ~block:42);
      incr completed))
  done;
  Sched.run sched;
  check int "all readers woken" 3 !completed;
  (* One request in flight, everyone joined it. *)
  check int "single disk read" 1 (Disk.reads disk)

(* Regression: a write that found a read of its block in flight joined
   that read instead of submitting its own, so it never reached the
   disk and the block read back stale once the cache no longer held
   it. A write now waits the read out, then writes. *)
let test_block_cache_write_during_read () =
  let m = Machine.create ~name:"fstest" ~mem_mb:4 () in
  let d = Dispatcher.create m.Machine.clock in
  let sched = Sched.create m.Machine.sim d in
  let phys = Phys_addr.create m d in
  let disk = Machine.add_disk ~blocks:8192 m in
  let cache = Block_cache.create ~phys m sched disk in
  let data = Bytes.make Disk.block_size 'w' in
  ignore (Sched.spawn sched ~name:"reader" (fun () ->
    ignore (Block_cache.read cache ~block:42)));
  ignore (Sched.spawn sched ~name:"writer" (fun () ->
    Block_cache.write cache ~block:42 data));
  Sched.run sched;
  check int "the write reached the disk" 1 (Disk.writes disk);
  let back = Bytes.create Disk.block_size in
  ignore (Sched.spawn sched ~name:"check" (fun () ->
    Block_cache.read_uncached cache ~block:42 back ~pos:0
      ~len:Disk.block_size));
  Sched.run sched;
  check bytes "the disk holds the write" data back

(* Regression: reading a resident page's unfilled slot waits on the
   disk, and reclaim may take the page during that wait. Filling the
   revoked page raised [Capability.Revoked] and killed the reading
   strand (under the web server, an HTTP request whose client then
   hung). The read must fall back to a fresh page. *)
let test_block_cache_page_reclaimed_during_fill () =
  let m = Machine.create ~name:"fstest" ~mem_mb:4 () in
  let d = Dispatcher.create m.Machine.clock in
  let sched = Sched.create m.Machine.sim d in
  let phys = Phys_addr.create m d in
  ignore (Spin_vm.Reclaim_policy.install_second_chance phys);
  let disk = Machine.add_disk ~blocks:8192 m in
  let cache = Block_cache.create ~phys m sched disk in
  let data = Bytes.make Disk.block_size 'r' in
  let waiting = ref false and result = ref None in
  ignore (Sched.spawn sched ~name:"reader" (fun () ->
    result :=
      Some
        (try
           Block_cache.write cache ~block:17 data;
           ignore (Block_cache.read cache ~block:16);  (* the group's page *)
           waiting := true;
           Ok (Block_cache.read cache ~block:17)       (* its unfilled slot *)
         with e -> Error (Printexc.to_string e))));
  ignore (Sched.spawn sched ~name:"pressure" (fun () ->
    while not !waiting do Sched.sleep_us sched 10. done;
    ignore (Phys_addr.force_reclaim phys)));
  Sched.run sched;
  check int "reclaim took the cache's page mid-read" 1
    (Block_cache.stats cache).Cache_stats.reclaims;
  (match !result with
   | Some (Ok got) -> check bytes "read completes with the data" data got
   | Some (Error e) -> fail ("read killed: " ^ e)
   | None -> fail "reader never finished");
  let hits = (Block_cache.stats cache).Cache_stats.hits in
  ignore (Sched.spawn sched ~name:"again" (fun () ->
    ignore (Block_cache.read cache ~block:17)));
  Sched.run sched;
  check int "the block was cached on a fresh page" (hits + 1)
    (Block_cache.stats cache).Cache_stats.hits

(* ------------------------------------------------------------------ *)
(* Simple_fs                                                          *)
(* ------------------------------------------------------------------ *)

let test_fs_create_write_read () =
  with_fs_machine (fun _ _ _ cache _ ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"hello.txt";
    Simple_fs.write fs ~name:"hello.txt" (Bytes.of_string "hello, disk");
    check string "contents" "hello, disk"
      (Bytes.to_string (Simple_fs.read fs ~name:"hello.txt"));
    check int "size" 11 (Simple_fs.size fs ~name:"hello.txt"))

let test_fs_large_file_indirect () =
  with_fs_machine (fun _ _ _ cache _ ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"big";
    (* Past the direct blocks (12 * 512 = 6144 bytes). *)
    let data = Bytes.init 40_000 (fun i -> Char.chr (i land 0xff)) in
    Simple_fs.write fs ~name:"big" data;
    check bytes "indirect blocks round-trip" data (Simple_fs.read fs ~name:"big"))

let test_fs_max_file_size_enforced () =
  with_fs_machine (fun _ _ _ cache _ ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"huge";
    (* 12 direct + 128 indirect blocks of 512 bytes: 71,680 bytes. *)
    Simple_fs.write fs ~name:"huge" (Bytes.create 71_680);
    check int "max is 70KB" 71_680 (Simple_fs.size fs ~name:"huge");
    (try
       Simple_fs.write fs ~name:"huge" (Bytes.create 71_681);
       fail "expected File_too_large"
     with Simple_fs.Fs_error Simple_fs.File_too_large -> ()))

let test_fs_errors () =
  with_fs_machine (fun _ _ _ cache _ ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    (try ignore (Simple_fs.read fs ~name:"ghost"); fail "expected error"
     with Simple_fs.Fs_error Simple_fs.No_such_file -> ());
    Simple_fs.create fs ~name:"dup";
    (try Simple_fs.create fs ~name:"dup"; fail "expected File_exists"
     with Simple_fs.Fs_error Simple_fs.File_exists -> ());
    (try Simple_fs.create fs ~name:(String.make 40 'x'); fail "expected Name_too_long"
     with Simple_fs.Fs_error Simple_fs.Name_too_long -> ()))

let test_fs_many_files_listed () =
  with_fs_machine (fun _ _ _ cache _ ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    let names = List.init 20 (Printf.sprintf "file%02d") in
    List.iter (fun name ->
      Simple_fs.create fs ~name;
      Simple_fs.write fs ~name (Bytes.of_string name)) names;
    check (list string) "all listed" names
      (List.sort compare (Simple_fs.list_files fs));
    List.iter (fun name ->
      check string "each content" name
        (Bytes.to_string (Simple_fs.read fs ~name))) names)

(* The directory lookup compares names in place over the dirent bytes;
   the reference is the decoded listing. Names share prefixes (a
   lookup of "f1" must not stop at "f10"), fill a dirent's 27-byte
   name field exactly, and are created one at a time between
   rewrites of the ones already stored. The queries add names that
   can never be stored: too long, empty, or cut short by a NUL. *)
let test_fs_lookup_matches_listing () =
  let longest = String.make 27 'n' in
  let stored =
    [ "f"; "f1"; "f10"; "f100"; "f1000"; "g"; longest;
      String.sub longest 0 26 ] in
  let queries = stored @ [ longest ^ "n"; ""; "f1\000"; "f10\000x" ] in
  with_fs_machine (fun _ _ _ cache _ ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    (try Simple_fs.create fs ~name:(longest ^ "n"); fail "expected Name_too_long"
     with Simple_fs.Fs_error Simple_fs.Name_too_long -> ());
    let model = Hashtbl.create 16 in
    let rng = Random.State.make [| 18 |] in
    for step = 1 to 300 do
      let name = List.nth stored (Random.State.int rng (List.length stored)) in
      if not (Hashtbl.mem model name) then Simple_fs.create fs ~name;
      let size = Random.State.int rng 3000 in
      Simple_fs.write fs ~name (Bytes.make size 'd');
      Hashtbl.replace model name size;
      let listed = Simple_fs.list_files fs in
      List.iter (fun name ->
        let tag what = Printf.sprintf "step %d %S %s" step name what in
        let present = List.mem name listed in
        check bool (tag "listed as the model says") (Hashtbl.mem model name)
          present;
        check bool (tag "exists agrees with the listing") present
          (Simple_fs.exists fs ~name);
        if present then
          check int (tag "size") (Hashtbl.find model name)
            (Simple_fs.size fs ~name))
        queries
    done)

(* Every metadata write is one disk write through the buffer cache;
   the allocation maps live in memory and are never written. Creating
   a file writes its inode, the root's new directory block and the
   root's inode; writing one block of it writes the data block and the
   file's inode again. *)
let test_fs_one_block_file_writes () =
  with_fs_machine (fun _ _ disk cache _ ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    let before = Disk.writes disk in
    Simple_fs.create fs ~name:"one";
    Simple_fs.write fs ~name:"one" (Bytes.make Disk.block_size 'b');
    check int "disk writes" 5 (Disk.writes disk - before))

(* Regression guard for the lookups' shared scratch block. A lookup
   reads each directory block into one buffer per file system and
   scans it before its next read: a read that misses blocks on the
   disk, and another strand's lookup may then fill the buffer. With a
   cold block cache, two strands look up different names while a third
   creates a file, so every lookup blocks between directory blocks.
   Each file's size is distinct, so [size] returning the right number
   means the lookup found the inode its directory entry names. *)
let test_fs_lookups_share_scratch () =
  let m = Machine.create ~name:"fstest" ~mem_mb:4 () in
  let d = Dispatcher.create m.Machine.clock in
  let sched = Sched.create m.Machine.sim d in
  let phys = Phys_addr.create m d in
  let disk = Machine.add_disk ~blocks:8192 m in
  let cache = Block_cache.create ~phys m sched disk in
  let name i = Printf.sprintf "file%02d" i and size i = 100 + i in
  let fs = ref None in
  (* 48 entries fill three directory blocks exactly, so the created
     file's entry starts a fourth. *)
  ignore (Sched.spawn sched ~name:"setup" (fun () ->
    let f = Simple_fs.format cache ~blocks:8192 () in
    for i = 0 to 47 do
      Simple_fs.create f ~name:(name i);
      Simple_fs.write f ~name:(name i) (Bytes.make (size i) 'x')
    done;
    fs := Some f));
  Sched.run sched;
  let fs = Option.get !fs in
  (* Reclaim every page the block cache holds, so each lookup misses. *)
  while Phys_addr.force_reclaim phys <> None do () done;
  let misses = (Block_cache.stats cache).Cache_stats.misses in
  let log = ref [] and failures = ref [] in
  let strand tag body =
    ignore (Sched.spawn sched ~name:tag (fun () ->
      log := `Start :: !log;
      (try body () with e -> failures := (tag ^ ": " ^ Printexc.to_string e) :: !failures);
      log := `End :: !log)) in
  let found = Hashtbl.create 4 in
  let lookup i =
    strand (name i) (fun () ->
      Hashtbl.replace found (name i)
        (Simple_fs.exists fs ~name:(name i), Simple_fs.size fs ~name:(name i))) in
  lookup 45;                                    (* in the last block *)
  lookup 3;                                     (* in the first *)
  strand "creator" (fun () ->
    Simple_fs.create fs ~name:"late";
    Simple_fs.write fs ~name:"late" (Bytes.make 77 'l'));
  Sched.run sched;
  check (list string) "no strand failed" [] !failures;
  check bool "all three started before any finished" true
    (match List.rev !log with
     | `Start :: `Start :: `Start :: _ -> true
     | _ -> false);
  check bool "the lookups missed, so they blocked" true
    ((Block_cache.stats cache).Cache_stats.misses >= misses + 4);
  List.iter (fun i ->
    check (pair bool int) (name i ^ " found with its own size") (true, size i)
      (Hashtbl.find found (name i)))
    [ 45; 3 ];
  (* And afterwards every name agrees with the decoded listing. *)
  strand "audit" (fun () ->
    let listed = Simple_fs.list_files fs in
    check int "listing" 49 (List.length listed);
    List.iter (fun n ->
      check bool (n ^ " exists") true (Simple_fs.exists fs ~name:n))
      listed;
    for i = 0 to 47 do
      check int (name i ^ " size") (size i) (Simple_fs.size fs ~name:(name i))
    done;
    check int "late size" 77 (Simple_fs.size fs ~name:"late"));
  Sched.run sched;
  check (list string) "the audit passed" [] !failures

(* ------------------------------------------------------------------ *)
(* File cache                                                         *)
(* ------------------------------------------------------------------ *)

let test_file_cache_small_files_cached () =
  with_fs_machine (fun _ _ _ cache phys ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"small";
    Simple_fs.write fs ~name:"small" (Bytes.of_string "tiny object");
    let fc = File_cache.create ~phys fs in
    (match File_cache.fetch fc ~name:"small" with
     | Some data -> check string "first fetch" "tiny object" (Bytes.to_string data)
     | None -> fail "missing");
    ignore (File_cache.fetch fc ~name:"small");
    let st = File_cache.stats fc in
    check int "one miss then one hit" 1 st.Cache_stats.hits;
    check int "misses" 1 st.Cache_stats.misses)

let test_file_cache_large_files_bypass () =
  with_fs_machine (fun _ _ _ cache phys ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"large";
    Simple_fs.write fs ~name:"large" (Bytes.create 70_000);
    let fc = File_cache.create ~phys fs in
    ignore (File_cache.fetch fc ~name:"large");
    ignore (File_cache.fetch fc ~name:"large");
    let st = File_cache.stats fc in
    check int "no cache traffic" 0 (st.Cache_stats.hits + st.Cache_stats.misses);
    check int "both bypassed" 2 (File_cache.large_bypasses fc);
    check int "nothing held" 0 st.Cache_stats.bytes_cached)

let test_file_cache_hit_avoids_disk () =
  with_fs_machine (fun m _ disk cache phys ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"obj";
    Simple_fs.write fs ~name:"obj" (Bytes.create 4_000);
    let fc = File_cache.create ~phys fs in
    ignore (File_cache.fetch fc ~name:"obj");
    let reads_before = Disk.reads disk in
    let spent = Clock.stamp m.Machine.clock (fun () ->
      ignore (File_cache.fetch fc ~name:"obj")) in
    check int "no disk reads on hit" reads_before (Disk.reads disk);
    check bool "hit is microseconds" true
      (Spin_machine.Cost.cycles_to_us m.Machine.cost spent < 200.))

let test_file_cache_byte_budget () =
  with_fs_machine (fun _ _ _ cache phys ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    let names = List.init 6 (Printf.sprintf "f%d") in
    List.iter (fun name ->
      Simple_fs.create fs ~name;
      Simple_fs.write fs ~name (Bytes.create 10_000)) names;
    let fc = File_cache.create ~capacity_bytes:30_000 ~phys fs in
    List.iter (fun name -> ignore (File_cache.fetch fc ~name)) names;
    let st = File_cache.stats fc in
    check bool "budget respected" true (st.Cache_stats.bytes_cached <= 30_000);
    check bool "something cached" true (st.Cache_stats.bytes_cached > 0))

let test_file_cache_missing_file () =
  with_fs_machine (fun _ _ _ cache phys ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    let fc = File_cache.create ~phys fs in
    check bool "none for ghosts" true (File_cache.fetch fc ~name:"ghost" = None))

let test_file_cache_survives_reclaim () =
  with_fs_machine (fun _ _ _ cache phys ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"obj";
    let data = Bytes.init 5_000 (fun i -> Char.chr (i land 0xff)) in
    Simple_fs.write fs ~name:"obj" data;
    let fc = File_cache.create ~phys fs in
    ignore (File_cache.fetch fc ~name:"obj");
    (* Drain every live page — block-cache metadata pages go first,
       eventually the file cache's entry is torn down too. *)
    while Phys_addr.force_reclaim phys <> None do () done;
    check bool "entry was reclaimed" true
      ((File_cache.stats fc).Cache_stats.reclaims >= 1);
    check int "nothing held" 0 (File_cache.stats fc).Cache_stats.bytes_cached;
    (* The object refetches on the next request. *)
    (match File_cache.fetch fc ~name:"obj" with
     | Some got -> check bytes "contents intact" data got
     | None -> fail "missing after reclaim");
    check int "refetch was a miss" 2 (File_cache.stats fc).Cache_stats.misses)

let test_caches_degrade_when_reclaim_disabled () =
  with_fs_machine (fun _ _ _ cache phys ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"obj";
    let data = Bytes.make 3_000 'd' in
    Simple_fs.write fs ~name:"obj" data;
    let fc = File_cache.create ~phys fs in
    (* A hog grabs the whole free pool with reclamation off; the
       caches must keep serving, just without pages. *)
    Phys_addr.set_reclaim_enabled phys false;
    (try
       while true do
         ignore
           (Phys_addr.allocate phys ~owner:"hog"
              ~bytes:Spin_machine.Addr.page_size)
       done
     with Phys_addr.Out_of_memory -> ());
    (match File_cache.fetch fc ~name:"obj" with
     | Some got -> check bytes "served uncached" data got
     | None -> fail "missing under pressure");
    check bool "file cache degraded" true (File_cache.degraded fc >= 1);
    check bool "oom was counted" true (Phys_addr.oom_failures phys >= 1))

let () =
  Alcotest.run "spin_fs"
    [
      ( "block_cache",
        [
          test_case "roundtrip" `Quick test_block_cache_roundtrip;
          test_case "hit accounting" `Quick test_block_cache_hits;
          test_case "uncached bypass" `Quick test_block_cache_uncached_bypasses;
          test_case "hits are fast" `Quick test_block_cache_hit_is_fast;
          test_case "survives reclaim" `Quick test_block_cache_survives_reclaim;
          test_case "concurrent same-block readers" `Quick
            test_block_cache_concurrent_same_block;
          test_case "page reclaimed during a fill" `Quick
            test_block_cache_page_reclaimed_during_fill;
          test_case "a write waits out a read in flight" `Quick
            test_block_cache_write_during_read;
        ] );
      ( "simple_fs",
        [
          test_case "create/write/read" `Quick test_fs_create_write_read;
          test_case "indirect blocks" `Quick test_fs_large_file_indirect;
          test_case "max size enforced" `Quick test_fs_max_file_size_enforced;
          test_case "error cases" `Quick test_fs_errors;
          test_case "many files" `Quick test_fs_many_files_listed;
          test_case "a one-block file's disk writes" `Quick
            test_fs_one_block_file_writes;
          test_case "concurrent lookups share the scratch block" `Quick
            test_fs_lookups_share_scratch;
          test_case "lookup matches the listing" `Quick
            test_fs_lookup_matches_listing;
        ] );
      ( "file_cache",
        [
          test_case "small files cached" `Quick test_file_cache_small_files_cached;
          test_case "large files bypass" `Quick test_file_cache_large_files_bypass;
          test_case "hits avoid the disk" `Quick test_file_cache_hit_avoids_disk;
          test_case "byte budget" `Quick test_file_cache_byte_budget;
          test_case "missing file" `Quick test_file_cache_missing_file;
          test_case "survives reclaim" `Quick test_file_cache_survives_reclaim;
          test_case "degrades without reclaim" `Quick
            test_caches_degrade_when_reclaim_disabled;
        ] );
    ]

(* Tests for the kernel heap and its mostly-copying collector. *)

open Alcotest
open Spin_kgc
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost

(* Each test allocates well under the 16,384-word collection
   threshold unless it means to cross it. *)
let heap () =
  let clock = Clock.create Cost.alpha_133 in
  (clock, Kheap.create clock ())

let test_alloc_and_fields () =
  let _, h = heap () in
  let a = Kheap.alloc h ~owner:"ext" ~words:4 in
  check bool "live" true (Kheap.is_live h ~addr:a);
  check int "owned" 4 (Kheap.owner_words h ~owner:"ext");
  Kheap.set_field h ~addr:a 2 (Kheap.Int 42);
  (match Kheap.get_field h ~addr:a 2 with
   | Kheap.Int 42 -> ()
   | _ -> fail "field roundtrip");
  check_raises "dead address" (Invalid_argument "Kheap: 999999 is not a live object")
    (fun () -> ignore (Kheap.get_field h ~addr:999999 0))

let test_collect_frees_garbage () =
  let _, h = heap () in
  let keep = Kheap.alloc h ~owner:"ext" ~words:8 in
  let root = Kheap.add_root h (Kheap.Ptr keep) in
  for _ = 1 to 50 do ignore (Kheap.alloc h ~owner:"ext" ~words:8) done;
  check int "heap holds everything" (51 * 8) (Kheap.heap_words h);
  Kheap.collect h;
  check int "only the root survives" 8 (Kheap.heap_words h);
  (match Kheap.read_root root with
   | Kheap.Ptr a -> check bool "referent live" true (Kheap.is_live h ~addr:a)
   | Kheap.Int _ -> fail "root clobbered");
  check int "freed words counted" (50 * 8) (Kheap.stats h).Kheap.words_freed

let test_references_keep_objects () =
  let _, h = heap () in
  (* A list: root -> a -> b -> c. *)
  let c = Kheap.alloc h ~owner:"ext" ~words:2 in
  let b = Kheap.alloc h ~owner:"ext" ~words:2 in
  let a = Kheap.alloc h ~owner:"ext" ~words:2 in
  Kheap.set_field h ~addr:a 0 (Kheap.Ptr b);
  Kheap.set_field h ~addr:b 0 (Kheap.Ptr c);
  let _root = Kheap.add_root h (Kheap.Ptr a) in
  ignore (Kheap.alloc h ~owner:"ext" ~words:64);  (* garbage *)
  Kheap.collect h;
  check int "chain survives" 6 (Kheap.heap_words h)

let test_copying_updates_references () =
  let _, h = heap () in
  let b = Kheap.alloc h ~owner:"ext" ~words:2 in
  let a = Kheap.alloc h ~owner:"ext" ~words:2 in
  Kheap.set_field h ~addr:a 0 (Kheap.Ptr b);
  Kheap.set_field h ~addr:a 1 (Kheap.Int 7);
  let root = Kheap.add_root h (Kheap.Ptr a) in
  Kheap.collect h;                        (* everything moves *)
  let a' = match Kheap.read_root root with
    | Kheap.Ptr x -> x
    | Kheap.Int _ -> fail "root lost" in
  (* Follow the forwarded inner pointer. *)
  (match Kheap.get_field h ~addr:a' 0 with
   | Kheap.Ptr b' ->
     check bool "forwarded referent live" true (Kheap.is_live h ~addr:b')
   | Kheap.Int _ -> fail "pointer clobbered");
  (match Kheap.get_field h ~addr:a' 1 with
   | Kheap.Int 7 -> ()
   | _ -> fail "immediate preserved")

let test_ambiguous_root_pins () =
  let _, h = heap () in
  let a = Kheap.alloc h ~owner:"ext" ~words:4 in
  (* No registered root; only a stack-like integer that happens to be
     the address. The page is pinned and the object must not move. *)
  Kheap.add_ambiguous_root h a;
  Kheap.collect h;
  check bool "pinned object survives in place" true (Kheap.is_live h ~addr:a);
  check bool "pages pinned counted" true ((Kheap.stats h).Kheap.pages_pinned > 0)

let test_pinned_page_retains_garbage () =
  (* The conservatism of mostly-copying: garbage sharing a pinned page
     is promoted with it. *)
  let _, h = heap () in
  let pinned = Kheap.alloc h ~owner:"ext" ~words:4 in
  let garbage_same_page = Kheap.alloc h ~owner:"ext" ~words:4 in
  Kheap.add_ambiguous_root h pinned;
  Kheap.collect h;
  check bool "pinned survives" true (Kheap.is_live h ~addr:pinned);
  check bool "page-mate garbage retained" true
    (Kheap.is_live h ~addr:garbage_same_page);
  (* live_words sees through the conservatism. *)
  check int "live excludes pinned garbage" 4 (Kheap.live_words h)

let test_false_ambiguous_root_harmless () =
  let _, h = heap () in
  ignore (Kheap.alloc h ~owner:"ext" ~words:4);
  Kheap.add_ambiguous_root h 123456789;   (* not an object address *)
  Kheap.collect h;
  check int "everything else collected" 0 (Kheap.heap_words h)

let test_root_removal_releases () =
  let _, h = heap () in
  let a = Kheap.alloc h ~owner:"ext" ~words:4 in
  let root = Kheap.add_root h (Kheap.Ptr a) in
  Kheap.collect h;
  check bool "held" true (Kheap.heap_words h = 4);
  Kheap.remove_root h root;
  Kheap.collect h;
  check int "released after root removal" 0 (Kheap.heap_words h)

let test_extension_death_reclaims () =
  (* The safety-net story: an extension dies without freeing; dropping
     its roots is enough for the collector to reclaim its memory. *)
  let _, h = heap () in
  let ext_roots =
    List.init 10 (fun _ ->
      let a = Kheap.alloc h ~owner:"video-ext" ~words:16 in
      Kheap.add_root h (Kheap.Ptr a)) in
  let other = Kheap.alloc h ~owner:"tcp" ~words:8 in
  let _other_root = Kheap.add_root h (Kheap.Ptr other) in
  Kheap.collect h;
  check int "extension memory accounted" 160 (Kheap.owner_words h ~owner:"video-ext");
  (* The extension terminates: the kernel drops its roots. *)
  List.iter (Kheap.remove_root h) ext_roots;
  Kheap.collect h;
  check int "extension memory reclaimed" 0 (Kheap.owner_words h ~owner:"video-ext");
  check int "others untouched" 8 (Kheap.owner_words h ~owner:"tcp")

let test_auto_collection_threshold () =
  let _, h = heap () in
  for _ = 1 to 5_000 do ignore (Kheap.alloc h ~owner:"x" ~words:4) done;
  check bool "auto collections ran" true ((Kheap.stats h).Kheap.collections > 0);
  check bool "garbage bounded" true (Kheap.heap_words h < 16_384)

let test_disable_auto () =
  let _, h = heap () in
  Kheap.set_auto h false;
  for _ = 1 to 5_000 do ignore (Kheap.alloc h ~owner:"x" ~words:4) done;
  check int "no collections" 0 (Kheap.stats h).Kheap.collections;
  check int "heap grew" 20_000 (Kheap.heap_words h)

let test_collection_charges_time () =
  let clock, h = heap () in
  let live = Kheap.alloc h ~owner:"x" ~words:100 in
  let _root = Kheap.add_root h (Kheap.Ptr live) in
  for _ = 1 to 20 do ignore (Kheap.alloc h ~owner:"x" ~words:100) done;
  let spent = Clock.stamp clock (fun () -> Kheap.collect h) in
  check bool "pause visible on the clock" true (spent > 500);
  check int "pause recorded" spent (Kheap.stats h).Kheap.pause_cycles

let test_disabling_gc_leaves_fast_path_costs () =
  (* Section 5.5: none of the fast-path measurements change when the
     collector is disabled — allocation cost is the same either way
     as long as no collection triggers. *)
  let clock_a, ha = heap () in
  let clock_b, hb = heap () in
  Kheap.set_auto hb false;
  let ca = Clock.stamp clock_a (fun () ->
    ignore (Kheap.alloc ha ~owner:"x" ~words:8)) in
  let cb = Clock.stamp clock_b (fun () ->
    ignore (Kheap.alloc hb ~owner:"x" ~words:8)) in
  check int "identical allocation cost" ca cb

let prop_collect_preserves_rooted_graph =
  QCheck2.Test.make ~name:"collection preserves the rooted object graph"
    ~count:100
    (* Build a random forest: list of (size, parent index option). *)
    QCheck2.Gen.(list_size (int_range 1 30)
                   (pair (int_range 1 8) (option (int_range 0 29))))
    (fun spec ->
      let clock = Clock.create Cost.alpha_133 in
      let h = Kheap.create clock () in
      Kheap.set_auto h false;
      let addrs =
        List.map (fun (words, _) -> Kheap.alloc h ~owner:"p" ~words) spec in
      let arr = Array.of_list addrs in
      (* Wire parents: field 0 of parent points at child. *)
      List.iteri
        (fun i (_, parent) ->
          match parent with
          | Some p when p < Array.length arr && p <> i ->
            Kheap.set_field h ~addr:arr.(p) 0 (Kheap.Ptr arr.(i))
          | Some _ | None -> ())
        spec;
      (* Root the first object only. *)
      let root = Kheap.add_root h (Kheap.Ptr arr.(0)) in
      let before = Kheap.live_words h in
      Kheap.collect h;
      let after = Kheap.live_words h in
      (* Reachable volume is invariant, the root still resolves, and
         the heap holds exactly the live words (nothing pinned). *)
      before = after
      && (match Kheap.read_root root with
          | Kheap.Ptr a -> Kheap.is_live h ~addr:a
          | Kheap.Int _ -> false)
      && Kheap.heap_words h = after)

let () =
  Alcotest.run "spin_kgc"
    [
      ( "kheap",
        [
          test_case "alloc and fields" `Quick test_alloc_and_fields;
          test_case "collect frees garbage" `Quick test_collect_frees_garbage;
          test_case "references keep objects" `Quick test_references_keep_objects;
          test_case "copying updates references" `Quick test_copying_updates_references;
          test_case "ambiguous root pins page" `Quick test_ambiguous_root_pins;
          test_case "pinned page retains garbage" `Quick test_pinned_page_retains_garbage;
          test_case "false ambiguous root harmless" `Quick test_false_ambiguous_root_harmless;
          test_case "root removal releases" `Quick test_root_removal_releases;
          test_case "dead extension reclaimed" `Quick test_extension_death_reclaims;
          test_case "auto collection threshold" `Quick test_auto_collection_threshold;
          test_case "disable auto" `Quick test_disable_auto;
          test_case "collection charges time" `Quick test_collection_charges_time;
          test_case "fast path unchanged when disabled" `Quick
            test_disabling_gc_leaves_fast_path_costs;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_collect_preserves_rooted_graph ] );
    ]

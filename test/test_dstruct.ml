(* Unit and property tests for the kernel data structures. *)

open Spin_dstruct

open Alcotest

(* ------------------------------------------------------------------ *)
(* Dllist                                                             *)
(* ------------------------------------------------------------------ *)

let test_dllist_basic () =
  let l = Dllist.create () in
  check bool "empty" true (Dllist.length l = 0);
  let _ = Dllist.push_back l 0 in
  let _ = Dllist.push_back l 1 in
  let _ = Dllist.push_back l 2 in
  check (list int) "order" [ 0; 1; 2 ] (Dllist.to_list l);
  check int "length" 3 (Dllist.length l);
  let pop () = Option.map Dllist.value (Dllist.pop_front l) in
  check (option int) "pop_front" (Some 0) (pop ());
  check (option int) "pop_front 2" (Some 1) (pop ());
  check (option int) "pop_front 3" (Some 2) (pop ());
  check (option int) "drained" None (pop ());
  check bool "empty again" true (Dllist.length l = 0)

let test_dllist_remove_middle () =
  let l = Dllist.create () in
  let _a = Dllist.push_back l 'a' in
  let b = Dllist.push_back l 'b' in
  let _c = Dllist.push_back l 'c' in
  Dllist.remove l b;
  check (list char) "b removed" [ 'a'; 'c' ] (Dllist.to_list l);
  check bool "unlinked" false (Dllist.is_linked b);
  Dllist.remove l b;                       (* double remove is a no-op *)
  check int "length stable" 2 (Dllist.length l)

let test_dllist_remove_ends () =
  let l = Dllist.create () in
  let a = Dllist.push_back l 1 in
  let b = Dllist.push_back l 2 in
  Dllist.remove l a;
  check (list int) "head removed" [ 2 ] (Dllist.to_list l);
  Dllist.remove l b;
  check bool "now empty" true (Dllist.length l = 0);
  let c = Dllist.push_back l 3 in
  check (list int) "reusable after drain" [ 3 ] (Dllist.to_list l);
  Dllist.remove l c

let test_dllist_foreign_node () =
  let l1 = Dllist.create () and l2 = Dllist.create () in
  let n = Dllist.push_back l1 1 in
  Alcotest.check_raises "foreign node rejected"
    (Invalid_argument "Dllist.remove: node from another list")
    (fun () -> Dllist.remove l2 n)

(* Queue operations on two lists, over a pool of nodes that are
   unlinked and linked again (a strand's run-queue node moves between
   queues), match a model of the two lists; linking a node that is
   already linked, or removing it through another list, raises. *)
type dllist_op =
  | Push of int * int                     (* list, value: a fresh node *)
  | Pop of int
  | Link of int * int                     (* pool node, list *)
  | Remove of int * int                   (* pool node, list *)

let pool_size = 4

let prop_dllist_mirrors_list =
  let open QCheck2.Gen in
  let op =
    let l = int_bound 1 and k = int_bound (pool_size - 1) in
    frequency
      [ (2, map2 (fun i v -> Push (i, v)) l small_int);
        (2, map (fun i -> Pop i) l);
        (3, map2 (fun k i -> Link (k, i)) k l);
        (3, map2 (fun k i -> Remove (k, i)) k l) ] in
  QCheck2.Test.make ~name:"dllist mirrors list model" ~count:300 (list op)
    (fun ops ->
      let lists = [| Dllist.create (); Dllist.create () |] in
      let pool = Array.init pool_size (fun k -> Dllist.node (-1 - k)) in
      (* The model holds each list's nodes, front first. *)
      let model = [| []; [] |] in
      let holder n =
        if List.memq n model.(0) then Some 0
        else if List.memq n model.(1) then Some 1
        else None in
      let raises f =
        match f () with () -> false | exception Invalid_argument _ -> true in
      let step = function
        | Push (i, v) ->
          model.(i) <- model.(i) @ [ Dllist.push_back lists.(i) v ];
          true
        | Pop i ->
          (match Dllist.pop_front lists.(i), model.(i) with
           | Some n, m :: rest when n == m -> model.(i) <- rest; true
           | None, [] -> true
           | _ -> false)
        | Link (k, i) ->
          let n = pool.(k) in
          (match holder n with
           | Some _ -> raises (fun () -> Dllist.link_back lists.(i) n)
           | None ->
             Dllist.link_back lists.(i) n;
             model.(i) <- model.(i) @ [ n ];
             true)
        | Remove (k, i) ->
          let n = pool.(k) in
          (match holder n with
           | Some j when j <> i -> raises (fun () -> Dllist.remove lists.(i) n)
           | Some _ ->
             Dllist.remove lists.(i) n;
             model.(i) <- List.filter (fun m -> m != n) model.(i);
             true
           | None -> Dllist.remove lists.(i) n; true) in
      let agrees i =
        Dllist.to_list lists.(i) = List.map Dllist.value model.(i)
        && Dllist.length lists.(i) = List.length model.(i) in
      List.for_all
        (fun o ->
          step o && agrees 0 && agrees 1
          && Array.for_all (fun n -> Dllist.is_linked n = (holder n <> None)) pool)
        ops)

(* ------------------------------------------------------------------ *)
(* Pqueue                                                             *)
(* ------------------------------------------------------------------ *)

(* Pops every element, smallest key first. *)
let pq_drain q =
  let rec go acc =
    if Pqueue.is_empty q then List.rev acc else go (Pqueue.pop q :: acc) in
  go []

let pq_of_keys xs =
  let q = Pqueue.create ~dummy:0 in
  List.iter (fun k -> Pqueue.add q k k) xs;
  q

(* [v] at [k] through a fresh handle, returned for removal. *)
let pq_arm q k v =
  let h = Pqueue.handle q in
  Pqueue.arm q h k v;
  h

let test_pqueue_order () =
  let q = pq_of_keys [ 5; 1; 4; 1; 3 ] in
  check int "min key" 1 (Pqueue.min_key q);
  check (list int) "sorted" [ 1; 1; 3; 4; 5 ] (pq_drain q);
  check bool "empty" true (Pqueue.is_empty q);
  check int "empty min key" max_int (Pqueue.min_key q);
  check_raises "pop on empty" (Invalid_argument "Pqueue.pop: empty")
    (fun () -> ignore (Pqueue.pop q))

let test_pqueue_fifo_ties () =
  (* Equal keys pop in insertion order. *)
  let q = Pqueue.create ~dummy:"" in
  List.iter (fun v -> Pqueue.add q 1 v) [ "x"; "y"; "z" ];
  check (list string) "fifo" [ "x"; "y"; "z" ] (pq_drain q)

let test_pqueue_remove () =
  let q = Pqueue.create ~dummy:0 in
  Pqueue.add q 1 1;
  let e2 = pq_arm q 2 2 in
  Pqueue.add q 3 3;
  check bool "remove succeeds" true (Pqueue.remove q e2);
  check bool "mem after remove" false (Pqueue.mem e2);
  check bool "re-remove is a no-op" false (Pqueue.remove q e2);
  check int "size" 2 (Pqueue.size q);
  check (list int) "min and max survive" [ 1; 3 ] (pq_drain q)

let test_pqueue_remove_min () =
  let q = Pqueue.create ~dummy:0 in
  let e1 = pq_arm q 1 1 in
  Pqueue.add q 2 2;
  ignore (Pqueue.remove q e1);
  check int "heap repaired" 2 (Pqueue.min_key q)

let test_pqueue_stale_handle () =
  (* A popped element's record is reused by the next add; the old
     handle must not remove the new element. *)
  let q = Pqueue.create ~dummy:0 in
  let h = pq_arm q 10 1 in
  check int "pops" 1 (Pqueue.pop q);
  let h2 = pq_arm q 20 2 in
  check int "record recycled" 1 (Pqueue.pool_hits q);
  check int "one record allocated" 1 (Pqueue.pool_misses q);
  check bool "stale handle" false (Pqueue.mem h);
  check bool "stale remove refused" false (Pqueue.remove q h);
  check bool "new element untouched" true (Pqueue.mem h2);
  check (list int) "new element pops" [ 2 ] (pq_drain q)

let test_pqueue_arm () =
  (* A handle carries element after element, each with the next
     insertion number, and refuses a second one while the first is
     queued. *)
  let q = Pqueue.create ~dummy:"" in
  let h = Pqueue.handle q in
  check bool "unarmed" false (Pqueue.mem h);
  check bool "unarmed remove refused" false (Pqueue.remove q h);
  Pqueue.arm q h 1 "a";
  check_raises "arm while queued"
    (Invalid_argument "Pqueue.arm: element still queued")
    (fun () -> Pqueue.arm q h 1 "b");
  Pqueue.add q 1 "b";
  check bool "removed" true (Pqueue.remove q h);
  Pqueue.arm q h 1 "c";
  check (list string) "re-armed behind earlier adds" [ "b"; "c" ] (pq_drain q);
  check bool "popped" false (Pqueue.mem h)

let prop_pqueue_sorts =
  QCheck2.Test.make ~name:"pqueue drains sorted" ~count:300
    QCheck2.Gen.(list small_int)
    (fun xs -> pq_drain (pq_of_keys xs) = List.sort compare xs)

let prop_pqueue_remove_subset =
  QCheck2.Test.make ~name:"pqueue removal leaves the complement" ~count:200
    QCheck2.Gen.(list (pair small_int bool))
    (fun xs ->
      let q = Pqueue.create ~dummy:0 in
      let entries = List.map (fun (v, kill) -> (pq_arm q v v, v, kill)) xs in
      List.iter (fun (e, _, kill) -> if kill then ignore (Pqueue.remove q e)) entries;
      let expect =
        List.filter_map (fun (_, v, kill) -> if kill then None else Some v) entries
        |> List.sort compare in
      pq_drain q = expect)

(* Regression: the heap once left vacated slots — and grown padding —
   pointing at live entries, pinning long-gone values against the GC.
   The queue must release a value as soon as it leaves. *)
let weak_live w =
  Gc.full_major ();
  Gc.full_major ();
  let n = ref 0 in
  for i = 0 to Weak.length w - 1 do
    if Weak.check w i then incr n
  done;
  !n

let pq_fill w n =
  let q = Pqueue.create ~dummy:Bytes.empty in
  let handles =
    List.init n (fun i ->
      let v = Bytes.make 32 (Char.chr (65 + (i mod 26))) in
      Weak.set w i (Some v);
      pq_arm q i v) in
  (q, handles)

let test_pqueue_pop_releases () =
  let w = Weak.create 4 in
  let q, _ = pq_fill w 4 in
  for _ = 1 to 4 do ignore (Pqueue.pop q) done;
  check int "popped values collectable" 0 (weak_live w);
  ignore (Sys.opaque_identity q)           (* keep the queue itself live *)

let test_pqueue_grow_releases () =
  (* 20 adds force two array growths; the padding slots of the grown
     arrays must not alias a live value. *)
  let w = Weak.create 20 in
  let q, _ = pq_fill w 20 in
  for _ = 1 to 20 do ignore (Pqueue.pop q) done;
  check int "no pin via grow padding" 0 (weak_live w);
  ignore (Sys.opaque_identity q)

let test_pqueue_remove_releases () =
  let w = Weak.create 8 in
  let q, handles = pq_fill w 8 in
  List.iter (fun h -> ignore (Pqueue.remove q h)) handles;
  (* The handles stay live: neither they nor the freed records may pin
     a removed value. *)
  check int "removed values collectable" 0 (weak_live w);
  ignore (Sys.opaque_identity (q, handles))

(* ------------------------------------------------------------------ *)
(* Ring                                                               *)
(* ------------------------------------------------------------------ *)

(* A bounded queue over the growable ring, as the NIC's receive ring
   is: the producer checks the length and refuses past the bound. *)
let bounded_push r ~bound v = Ring.length r < bound && (Ring.add r v; true)

let test_ring_bounds () =
  let r = Ring.create ~dummy:0 2 in
  check bool "push 1" true (bounded_push r ~bound:2 1);
  check bool "push 2" true (bounded_push r ~bound:2 2);
  check bool "full rejects" false (bounded_push r ~bound:2 3);
  check int "fifo pop" 1 (Ring.take r);
  check bool "room again" true (bounded_push r ~bound:2 4);
  check int "pop 2" 2 (Ring.take r);
  check int "pop 4" 4 (Ring.take r);
  check bool "drained" true (Ring.is_empty r);
  check_raises "take on a drained ring" (Invalid_argument "Ring.take: empty")
    (fun () -> ignore (Ring.take r));
  (* Unbounded, the ring grows past its initial room instead. *)
  List.iter (Ring.add r) [ 5; 6; 7 ];
  check int "grown past its initial room" 3 (Ring.length r);
  check (list int) "fifo across growth" [ 5; 6; 7 ]
    (List.init 3 (fun _ -> Ring.take r))

let test_ring_wraparound () =
  let r = Ring.create ~dummy:0 3 in
  for round = 0 to 9 do
    Ring.add r round;
    check int "pop" round (Ring.take r)
  done;
  check bool "empty at end" true (Ring.is_empty r)

let test_ring_iter () =
  let r = Ring.create ~dummy:0 4 in
  List.iter (Ring.add r) [ 1; 2; 3 ];
  let acc = ref [] in
  Ring.iter (fun v -> acc := v :: !acc) r;
  check (list int) "oldest first" [ 1; 2; 3 ] (List.rev !acc)

let test_ring_invalid () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Ring.create: capacity must be positive")
    (fun () -> ignore (Ring.create ~dummy:0 0))

(* Adds and takes against a list model, from a small initial room so
   the ops cross both growth and wrap-around. After every op the
   ring's emptiness, length and iteration agree with the model. *)
let prop_ring_matches_model =
  let open QCheck2.Gen in
  let op = frequency [ (3, map Option.some small_int); (2, pure None) ] in
  QCheck2.Test.make ~name:"ring agrees with a list model" ~count:300
    (pair (int_range 1 4) (list_size (int_bound 200) op))
    (fun (room, ops) ->
      let r = Ring.create ~dummy:(-1) room in
      let model = ref [] in
      let agrees () =
        let seen = ref [] in
        Ring.iter (fun v -> seen := v :: !seen) r;
        Ring.is_empty r = (!model = [])
        && Ring.length r = List.length !model
        && List.rev !seen = !model in
      List.for_all
        (fun op ->
          let ok =
            match op, !model with
            | Some v, m -> Ring.add r v; model := m @ [ v ]; true
            | None, [] ->
              (match Ring.take r with
               | _ -> false
               | exception Invalid_argument _ -> true)
            | None, v :: rest -> model := rest; Ring.take r = v in
          ok && agrees ())
        ops)

(* ------------------------------------------------------------------ *)
(* Bitset                                                             *)
(* ------------------------------------------------------------------ *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  check int "initial count" 0 (Bitset.count b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 99;
  check bool "mem 63" true (Bitset.mem b 63);
  check bool "not mem 50" false (Bitset.mem b 50);
  check int "count" 3 (Bitset.count b);
  Bitset.set b 63;                        (* idempotent *)
  check int "count stable" 3 (Bitset.count b);
  Bitset.clear b 63;
  check bool "cleared" false (Bitset.mem b 63);
  check int "count after clear" 2 (Bitset.count b)

let test_bitset_find () =
  let b = Bitset.create 8 in
  Bitset.set b 0; Bitset.set b 1; Bitset.set b 2;
  check (option int) "first clear" (Some 3) (Bitset.find_first_clear b);
  for i = 3 to 7 do Bitset.set b i done;
  check (option int) "none clear" None (Bitset.find_first_clear b);
  for i = 0 to 7 do Bitset.clear b i done;
  check (option int) "all clear again" (Some 0) (Bitset.find_first_clear b)

let test_bitset_run () =
  let b = Bitset.create 16 in
  Bitset.set b 2; Bitset.set b 6;
  (* clear runs: [0,1], [3,4,5], [7..15] *)
  check (option int) "run of 2" (Some 0) (Bitset.find_clear_run b 2);
  check (option int) "run of 3" (Some 3) (Bitset.find_clear_run b 3);
  check (option int) "run of 9" (Some 7) (Bitset.find_clear_run b 9);
  check (option int) "run too long" None (Bitset.find_clear_run b 10)

let test_bitset_range_check () =
  let b = Bitset.create 4 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.set b 4)

(* The byte-at-a-time search against a per-bit scan, on lengths that
   end mid-byte, with dense sets (so the first clear bit sits late or
   only in the padding) and sparse ones. *)
let test_bitset_find_matches_scan () =
  let rng = Random.State.make [| 20 |] in
  let scan b =
    let rec go i =
      if i >= Bitset.length b then None
      else if not (Bitset.mem b i) then Some i
      else go (i + 1) in
    go 0 in
  List.iter (fun n ->
    for density = 0 to 4 do
      let b = Bitset.create n in
      for i = 0 to n - 1 do
        if Random.State.int rng 4 < density then Bitset.set b i
      done;
      let tag what = Printf.sprintf "%d bits, density %d/4, %s" n density what in
      check (option int) (tag "first clear") (scan b)
        (Bitset.find_first_clear b)
    done)
    [ 0; 1; 5; 8; 13; 64; 100; 1021 ]

(* ------------------------------------------------------------------ *)
(* Lru                                                                *)
(* ------------------------------------------------------------------ *)

let test_lru_eviction_order () =
  let evicted = ref [] in
  let c = Lru.create ~on_evict:(fun k _ -> evicted := k :: !evicted) ~capacity:2 () in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  ignore (Lru.find c "a");                (* a is now MRU *)
  Lru.add c "c" 3;                        (* evicts b *)
  check (list string) "evicted lru" [ "b" ] !evicted;
  check bool "a kept" true (Lru.mem c "a");
  check bool "c kept" true (Lru.mem c "c")

let test_lru_peek_does_not_touch () =
  let evicted = ref [] in
  let c = Lru.create ~on_evict:(fun k _ -> evicted := k :: !evicted) ~capacity:2 () in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  check (option int) "peek a" (Some 1) (Lru.peek c "a");
  Lru.add c "c" 3;                        (* peek left a as LRU *)
  check (list string) "a evicted" [ "a" ] !evicted

let test_lru_replace_and_remove () =
  let c = Lru.create ~capacity:4 () in
  Lru.add c 1 "one";
  Lru.add c 1 "uno";
  check (option string) "replaced" (Some "uno") (Lru.find c 1);
  check int "no duplicate" 1 (Lru.length c);
  Lru.remove c 1;
  check (option string) "removed" None (Lru.find c 1);
  Lru.remove c 1                          (* idempotent *)

let prop_lru_never_exceeds_capacity =
  QCheck2.Test.make ~name:"lru holds at most capacity" ~count:200
    QCheck2.Gen.(pair (int_range 1 8) (list (int_range 0 20)))
    (fun (cap, keys) ->
      let c = Lru.create ~capacity:cap () in
      List.iter (fun k -> Lru.add c k (k * 10)) keys;
      Lru.length c <= cap)

(* The entries' own links against a list model, most recent first:
   every answer, the recency order, the least-recent value after every
   operation, and the evictions, by capacity or asked for, agree. *)
let prop_lru_matches_model =
  QCheck2.Test.make ~name:"lru agrees with a recency-list model" ~count:300
    QCheck2.Gen.(
      pair (int_range 1 6)
        (list (pair (int_range 0 4) (int_range 0 9))))
    (fun (cap, ops) ->
      let evicted = ref [] and model_evicted = ref [] in
      let c =
        Lru.create ~on_evict:(fun k v -> evicted := (k, v) :: !evicted)
          ~capacity:cap () in
      let model = ref [] in
      let ok = ref true in
      List.iteri
        (fun i (op, k) ->
          let front v = (k, v) :: List.remove_assoc k !model in
          (match op with
          | 0 ->
            model := front i;
            if List.length !model > cap then begin
              let rec split = function
                | [ last ] -> ([], last)
                | x :: rest -> let keep, last = split rest in (x :: keep, last)
                | [] -> assert false in
              let keep, last = split !model in
              model := keep;
              model_evicted := last :: !model_evicted
            end;
            Lru.add c k i
          | 1 ->
            let want = List.assoc_opt k !model in
            Option.iter (fun v -> model := front v) want;
            if Lru.find c k <> want then ok := false
          | 2 -> if Lru.peek c k <> List.assoc_opt k !model then ok := false
          | 3 ->
            model := List.remove_assoc k !model;
            Lru.remove c k
          | _ ->
            (match List.rev !model with
             | last :: rest ->
               model := List.rev rest;
               model_evicted := last :: !model_evicted
             | [] -> ());
            Lru.evict c);
          let coldest =
            match List.rev !model with (_, v) :: _ -> Some v | [] -> None in
          if Lru.least_recent c <> coldest then ok := false)
        ops;
      let order = ref [] in
      Lru.iter (fun k v -> order := (k, v) :: !order) c;
      !ok
      && List.rev !order = !model
      && !evicted = !model_evicted
      && Lru.length c = List.length !model)

(* ------------------------------------------------------------------ *)
(* Idtable                                                            *)
(* ------------------------------------------------------------------ *)

let test_idtable_roundtrip () =
  let t = Idtable.create () in
  let i = Idtable.insert t "alpha" in
  let j = Idtable.insert t "beta" in
  check bool "distinct" true (i <> j);
  check (option string) "lookup i" (Some "alpha") (Idtable.lookup t i);
  check (option string) "lookup j" (Some "beta") (Idtable.lookup t j)

let test_idtable_stale_index () =
  let t = Idtable.create () in
  let i = Idtable.insert t 42 in
  Idtable.remove t i;
  check (option int) "stale" None (Idtable.lookup t i);
  check (option int) "negative" None (Idtable.lookup t (-1));
  check (option int) "way out" None (Idtable.lookup t 9999);
  check int "live" 0 (Idtable.length t)

let test_idtable_slot_reuse () =
  let t = Idtable.create () in
  let i = Idtable.insert t "x" in
  Idtable.remove t i;
  let j = Idtable.insert t "y" in
  check int "slot reused" i j;
  check (option string) "new value" (Some "y") (Idtable.lookup t j)

let prop_idtable_consistent =
  QCheck2.Test.make ~name:"idtable lookup matches inserts" ~count:200
    QCheck2.Gen.(list small_int)
    (fun xs ->
      let t = Idtable.create () in
      let ids = List.map (fun v -> (Idtable.insert t v, v)) xs in
      List.for_all (fun (i, v) -> Idtable.lookup t i = Some v) ids
      && Idtable.length t = List.length xs)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "spin_dstruct"
    [
      ( "dllist",
        [
          Alcotest.test_case "basic push/pop" `Quick test_dllist_basic;
          Alcotest.test_case "remove middle node" `Quick test_dllist_remove_middle;
          Alcotest.test_case "remove end nodes" `Quick test_dllist_remove_ends;
          Alcotest.test_case "foreign node rejected" `Quick test_dllist_foreign_node;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "pops in order" `Quick test_pqueue_order;
          Alcotest.test_case "FIFO on ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "entry removal" `Quick test_pqueue_remove;
          Alcotest.test_case "remove current min" `Quick test_pqueue_remove_min;
          Alcotest.test_case "stale handle is ABA-safe" `Quick
            test_pqueue_stale_handle;
          Alcotest.test_case "pop releases values" `Quick test_pqueue_pop_releases;
          Alcotest.test_case "grow padding releases values" `Quick
            test_pqueue_grow_releases;
          Alcotest.test_case "remove releases values" `Quick
            test_pqueue_remove_releases;
          Alcotest.test_case "a handle re-arms" `Quick test_pqueue_arm;
        ] );
      ( "ring",
        [
          Alcotest.test_case "bounded push/pop" `Quick test_ring_bounds;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "iter oldest-first" `Quick test_ring_iter;
          Alcotest.test_case "invalid capacity" `Quick test_ring_invalid;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "set/clear/count" `Quick test_bitset_basic;
          Alcotest.test_case "find first" `Quick test_bitset_find;
          Alcotest.test_case "clear runs" `Quick test_bitset_run;
          Alcotest.test_case "range check" `Quick test_bitset_range_check;
          Alcotest.test_case "find first matches a per-bit scan" `Quick
            test_bitset_find_matches_scan;
        ] );
      ( "lru",
        [
          Alcotest.test_case "evicts least recent" `Quick test_lru_eviction_order;
          Alcotest.test_case "peek preserves order" `Quick test_lru_peek_does_not_touch;
          Alcotest.test_case "replace and remove" `Quick test_lru_replace_and_remove;
        ] );
      ( "idtable",
        [
          Alcotest.test_case "roundtrip" `Quick test_idtable_roundtrip;
          Alcotest.test_case "stale index safe" `Quick test_idtable_stale_index;
          Alcotest.test_case "slot reuse" `Quick test_idtable_slot_reuse;
        ] );
      qsuite "properties"
        [
          prop_dllist_mirrors_list;
          prop_pqueue_sorts;
          prop_pqueue_remove_subset;
          prop_lru_never_exceeds_capacity;
          prop_lru_matches_model;
          prop_idtable_consistent;
          prop_ring_matches_model;
        ];
    ]

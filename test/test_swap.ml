(* Live extension update (Spin.Swap): checkpoint,
   hot-swap, and epoch-based revocation. The central claims under
   test: a swap drops no work (raises arriving inside the window park
   at the gate and complete against the replacement), carried state
   survives via checkpoint/restore, a failed swap rolls back to the
   untouched old instance, and every reference minted by the retired
   instance dies as a typed [Revoked] fault — never a dangle. *)

open Alcotest
open Spin
module Dispatcher = Spin_core.Dispatcher
module Object_file = Spin_core.Object_file
module Kdomain = Spin_core.Kdomain
module Capability = Spin_core.Capability
module Extern_ref = Spin_core.Extern_ref
module Univ = Spin_core.Univ
module Sched = Spin_sched.Sched

let must r = Dispatcher.ok_exn ~site:"test_swap" r

let count_tag : int Univ.tag = Univ.tag ~name:"Counter.State" ()

let fixture () =
  let k = Kernel.boot () in
  let tick =
    Dispatcher.declare k.Kernel.dispatcher ~name:"Work.Tick" ~owner:"Work"
      (fun () -> ()) in
  (k, tick)

(* One generation of the "Counter" extension: counts Work.Tick raises,
   and (by default) plays the Checkpointable convention so the count
   survives a swap. The knobs build the broken variants the negative
   tests need. *)
let counter ~version ?(with_checkpoint = true) ?(with_restore = true)
    ?(ckpt_raises = false) ?externs tick =
  let count = ref 0 in
  let b =
    Object_file.Builder.create ~name:"Counter"
      ~safety:Object_file.Compiler_signed () in
  Object_file.Builder.set_version b version;
  Object_file.Builder.set_init b (fun () ->
    ignore
      (must @@ Dispatcher.install tick ~installer:"Counter" (fun () ->
           incr count)));
  if with_checkpoint then
    Object_file.Builder.export b Swap.checkpoint_sym
      (Univ.pack Swap.checkpoint_tag (fun () ->
           if ckpt_raises then failwith "checkpoint exploded";
           Univ.pack count_tag !count));
  if with_restore then
    Object_file.Builder.export b Swap.restore_sym
      (Univ.pack Swap.restore_tag (fun u ->
           match Univ.unpack count_tag u with
           | Some n -> count := n
           | None -> ()));
  Option.iter
    (fun tbl ->
      Object_file.Builder.export b Swap.externs_sym
        (Univ.pack Swap.externs_tag tbl))
    externs;
  (Object_file.Builder.build b, count)

(* The swap protocol as the benchmarks run it on a kernel's [Swap.t]. *)
let hot_swap k old_domain replacement =
  Swap.hot_swap k.Kernel.swap ~old_domain ~replacement ~prepare:Kdomain.create ()

let load_exn k obj =
  match Kernel.load_extension k obj with
  | Ok d -> d
  | Error e -> fail (Kdomain.error_to_string e)

(* ------------------------------------------------------------------ *)

let test_stale_capability_faults_after_swap () =
  (* The tentpole safety property: a capability minted by the retired
     generation must fault as [Revoked] after the swap — it must not
     dereference into the replaced instance. (Before epoch-based
     revocation, this deref happily returned the stale resource.) *)
  let k, tick = fixture () in
  let obj1, _ = counter ~version:1 tick in
  let old = load_exn k obj1 in
  let session = Capability.mint ~owner:"Counter" "generation-1 session" in
  check string "live before the swap" "generation-1 session"
    (Capability.deref session);
  let obj2, _ = counter ~version:2 tick in
  (match hot_swap k old obj2 with
   | Error e -> fail (Swap.error_to_string e)
   | Ok o ->
     check int "outcome reports the new epoch"
       (Capability.epoch (Capability.mint ~owner:"Counter" ()))
       o.Swap.sw_cap_epoch);
  check bool "stale capability invalid" false (Capability.is_valid session);
  check (option string) "deref_opt is None" None
    (Capability.deref_opt session);
  (try
     ignore (Capability.deref session);
     fail "stale capability dereferenced into the retired generation"
   with Capability.Revoked _ -> ());
  (* The replacement mints under the new epoch and lives. *)
  let fresh = Capability.mint ~owner:"Counter" "generation-2 session" in
  check string "new generation's capabilities work" "generation-2 session"
    (Capability.deref fresh)

let test_checkpoint_carries_state_across_swap () =
  let k, tick = fixture () in
  let obj1, c1 = counter ~version:1 tick in
  let old = load_exn k obj1 in
  let announced = ref [] in
  ignore
    (must @@ Dispatcher.install (Swap.swapped_event k.Kernel.swap)
       ~installer:"observer" (fun o ->
         announced := o.Swap.sw_domain :: !announced));
  for _ = 1 to 5 do Dispatcher.raise_event tick () done;
  check int "v1 counted its ticks" 5 !c1;
  let obj2, c2 = counter ~version:2 tick in
  (match hot_swap k old obj2 with
   | Error e -> fail (Swap.error_to_string e)
   | Ok o ->
     check bool "state travelled" true o.Swap.sw_checkpointed;
     check int "from v1" 1 o.Swap.sw_from_version;
     check int "to v2" 2 o.Swap.sw_to_version;
     check int "one handler swept" 1 o.Swap.sw_handlers_swept;
     check (list string) "Work.Tick was the gated set" [ "Work.Tick" ]
       o.Swap.sw_gated_events;
     check bool "pause was charged" true (o.Swap.sw_pause_us > 0.));
  check int "v2 starts where v1 stopped" 5 !c2;
  for _ = 1 to 3 do Dispatcher.raise_event tick () done;
  check int "v2 continues the count" 8 !c2;
  check int "v1 is out of the dispatch path" 5 !c1;
  check (list string) "DomainSwapped announced" [ "Counter" ] !announced

let test_swap_under_load_drops_nothing () =
  (* A raiser strand ticks through the whole swap; the swapper lands
     mid-storm. Every tick must be counted by one generation or the
     other — raises inside the window are held and drained, not
     dropped. *)
  let k, tick = fixture () in
  let obj1, _ = counter ~version:1 tick in
  let old = load_exn k obj1 in
  let obj2, c2 = counter ~version:2 tick in
  let raises = 30 in
  ignore (Kernel.spawn k ~name:"raiser" (fun () ->
    for _ = 1 to raises do
      Dispatcher.raise_event tick ();
      Sched.sleep_us k.Kernel.sched 10.
    done));
  let outcome = ref None and failure = ref None in
  ignore (Kernel.spawn k ~name:"swapper" (fun () ->
    Sched.sleep_us k.Kernel.sched 95.;
    match hot_swap k old obj2 with
    | Ok o -> outcome := Some o
    | Error e -> failure := Some (Swap.error_to_string e)));
  Kernel.run k;
  (match !failure with Some e -> fail e | None -> ());
  check bool "swap committed" true (!outcome <> None);
  check int "every tick counted across the swap" raises !c2;
  check int "nothing left in flight" 0
    (Dispatcher.in_flight_by_name k.Kernel.dispatcher ~names:[ "Work.Tick" ]);
  check bool "no gate left closed" false (Dispatcher.is_gated tick)

let test_export_gap_rejected () =
  (* A replacement that breaks the old interface is refused before the
     old instance is touched. *)
  let k, tick = fixture () in
  let obj1, c1 = counter ~version:1 tick in
  let old = load_exn k obj1 in
  Dispatcher.raise_event tick ();
  let gapped, _ =
    counter ~version:2 ~with_checkpoint:false ~with_restore:false tick in
  (match hot_swap k old gapped with
   | Error (Swap.Export_gap gaps) ->
     check bool "names the missing export" true
       (List.exists
          (fun g ->
            String.length g >= 15 && String.sub g 0 15 = "Swap.checkpoint")
          gaps)
   | Ok _ -> fail "incompatible replacement was accepted"
   | Error e -> fail (Swap.error_to_string e));
  Dispatcher.raise_event tick ();
  check int "old instance untouched and serving" 2 !c1;
  check int "old extension still loaded" 1 (Kernel.extension_count k);
  check int "failure counted" 1 (Swap.stats k.Kernel.swap).Swap.failed_swaps

let test_not_restorable_rejected () =
  (* The old instance checkpoints state; a replacement with no restore
     would silently discard it — refused. (Neither generation exports
     restore, so this is not an export gap.) *)
  let k, tick = fixture () in
  let obj1, c1 = counter ~version:1 ~with_restore:false tick in
  let old = load_exn k obj1 in
  Dispatcher.raise_event tick ();
  let forgetful, _ = counter ~version:2 ~with_restore:false tick in
  (match hot_swap k old forgetful with
   | Error (Swap.Not_restorable _) -> ()
   | Ok _ -> fail "state-dropping replacement was accepted"
   | Error e -> fail (Swap.error_to_string e));
  Dispatcher.raise_event tick ();
  check int "old instance untouched and serving" 2 !c1

let test_checkpoint_failure_rolls_back () =
  let k, tick = fixture () in
  let obj1, c1 = counter ~version:1 ~ckpt_raises:true tick in
  let old = load_exn k obj1 in
  Dispatcher.raise_event tick ();
  let obj2, _ = counter ~version:2 tick in
  let epoch0 = Capability.epoch (Capability.mint ~owner:"Counter" ()) in
  (match hot_swap k old obj2 with
   | Error (Swap.Checkpoint_failure _) -> ()
   | Ok _ -> fail "swap committed over a failed checkpoint"
   | Error e -> fail (Swap.error_to_string e));
  (* Rollback: gates reopened, old handlers serving. *)
  check bool "gate reopened" false (Dispatcher.is_gated tick);
  Dispatcher.raise_event tick ();
  check int "old handlers still serve" 2 !c1;
  check int "extension still loaded" 1 (Kernel.extension_count k);
  check int "no capability generation was burned" epoch0
    (Capability.epoch (Capability.mint ~owner:"Counter" ()));
  check int "failure counted" 1 (Swap.stats k.Kernel.swap).Swap.failed_swaps

let test_extern_refs_retired_by_swap () =
  (* Indices the old generation externalized to user space die with
     its epoch: internalization misses (counted), never dangles. *)
  let k, tick = fixture () in
  let table = Extern_ref.create () in
  let rtag : string Univ.tag = Univ.tag ~name:"Counter.Res" () in
  let obj1, _ = counter ~version:1 ~externs:table tick in
  let old = load_exn k obj1 in
  let idx = Extern_ref.externalize table rtag "resource-1" in
  check (option string) "live before the swap" (Some "resource-1")
    (Extern_ref.internalize table rtag idx);
  let obj2, _ = counter ~version:2 ~externs:table tick in
  (match hot_swap k old obj2 with
   | Error e -> fail (Swap.error_to_string e)
   | Ok o ->
     check (option int) "outcome reports the table's new epoch"
       (Some (Extern_ref.epoch table)) o.Swap.sw_extern_epoch);
  check (option string) "stale index dead, not dangling" None
    (Extern_ref.internalize table rtag idx);
  let idx2 = Extern_ref.externalize table rtag "resource-2" in
  check (option string) "new generation externalizes fine"
    (Some "resource-2") (Extern_ref.internalize table rtag idx2)

let () =
  Alcotest.run "spin_swap"
    [
      ( "hot swap",
        [
          test_case "stale capability faults as Revoked after swap" `Quick
            test_stale_capability_faults_after_swap;
          test_case "checkpoint carries state across the swap" `Quick
            test_checkpoint_carries_state_across_swap;
          test_case "swap under load drops nothing" `Quick
            test_swap_under_load_drops_nothing;
          test_case "incompatible replacement rejected" `Quick
            test_export_gap_rejected;
          test_case "state-dropping replacement rejected" `Quick
            test_not_restorable_rejected;
          test_case "checkpoint failure rolls back" `Quick
            test_checkpoint_failure_rolls_back;
          test_case "extern refs retired by epoch" `Quick
            test_extern_refs_retired_by_swap;
        ] );
    ]

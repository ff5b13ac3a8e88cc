(* Tests for the extensible memory management system: physical and
   virtual address services, translation events, the pageout daemon,
   and the Table 4 extension. *)

open Alcotest
open Spin_vm
module Machine = Spin_machine.Machine
module Addr = Spin_machine.Addr
module Mmu = Spin_machine.Mmu
module Cpu = Spin_machine.Cpu
module Clock = Spin_machine.Clock
module Phys_mem = Spin_machine.Phys_mem
module Capability = Spin_core.Capability
module Dispatcher = Spin_core.Dispatcher
module Sched = Spin_sched.Sched

let must r = Dispatcher.ok_exn ~site:"test_vm" r

(* [Sched.run] that stops once [until] holds, checked between slices. *)
let rec run_until sim s until =
  if not (until ()) && (Sched.step s || Spin_machine.Sim.idle_step sim) then
    run_until sim s until

let boot () =
  let m = Machine.create ~name:"vmtest" ~mem_mb:2 () in
  let d = Dispatcher.create m.Machine.clock in
  let vm = Vm.create m d in
  Machine.set_trap_handler m
    (fun trap -> if Vm.handle_trap vm trap then 0 else -1);
  (m, d, vm)

(* ------------------------------------------------------------------ *)
(* Phys_addr                                                          *)
(* ------------------------------------------------------------------ *)

let test_phys_alloc_dealloc () =
  let _, _, vm = boot () in
  let free0 = Phys_addr.free_pages vm.Vm.phys in
  let p = Phys_addr.allocate vm.Vm.phys ~owner:"test" ~bytes:(3 * Addr.page_size) in
  check int "three pages gone" (free0 - 3) (Phys_addr.free_pages vm.Vm.phys);
  check int "run length" 3 (Phys_addr.page_run p).Phys_addr.npages;
  Phys_addr.deallocate vm.Vm.phys p;
  check int "returned" free0 (Phys_addr.free_pages vm.Vm.phys);
  check bool "capability dead" false (Capability.is_valid p);
  Phys_addr.deallocate vm.Vm.phys p      (* idempotent *)

let test_phys_contiguous () =
  let _, _, vm = boot () in
  let p = Phys_addr.allocate vm.Vm.phys
      ~attrib:{ Phys_addr.contiguous = true }
      ~owner:"t" ~bytes:(8 * Addr.page_size) in
  check int "eight adjacent frames" 8 (Phys_addr.page_run p).Phys_addr.npages

let test_phys_reclaim_event () =
  (* Exhaust memory; the Reclaim event must fire and a handler can
     nominate an alternative victim. *)
  let _, _, vm = boot () in
  let total = Phys_addr.free_pages vm.Vm.phys in
  let first = Phys_addr.allocate vm.Vm.phys ~owner:"old" ~bytes:Addr.page_size in
  let sacrificial =
    Phys_addr.allocate vm.Vm.phys ~owner:"cache" ~bytes:Addr.page_size in
  ignore (must @@ Dispatcher.install (Phys_addr.reclaim_event vm.Vm.phys)
            ~installer:"cache"
            (fun _candidate -> sacrificial));
  (* Grab everything that's left, then one more to force reclamation. *)
  let rest = Phys_addr.allocate vm.Vm.phys ~owner:"hog"
      ~bytes:((total - 2) * Addr.page_size) in
  let extra = Phys_addr.allocate vm.Vm.phys ~owner:"hog2" ~bytes:Addr.page_size in
  check bool "volunteer was taken" false (Capability.is_valid sacrificial);
  check bool "original survivor" true (Capability.is_valid first);
  ignore rest; ignore extra

let test_phys_out_of_memory () =
  let _, _, vm = boot () in
  let total = Phys_addr.total_pages vm.Vm.phys in
  check_raises "oversized allocation" Phys_addr.Out_of_memory (fun () ->
    (* A request larger than physical memory can never be satisfied,
       even after reclaiming every live page. *)
    ignore (Phys_addr.allocate vm.Vm.phys ~owner:"hog"
              ~bytes:((total + 1) * Addr.page_size)))

let test_phys_reclaim_reentrancy () =
  (* Regression: a Reclaim handler that itself allocates must see a
     clean Out_of_memory while reclamation is in progress, never
     recurse back into the protocol. *)
  let _, _, vm = boot () in
  let phys = vm.Vm.phys in
  let total = Phys_addr.free_pages phys in
  let _hog =
    Phys_addr.allocate phys ~owner:"hog" ~bytes:(total * Addr.page_size) in
  let saw_clean_oom = ref false in
  ignore (must @@ Dispatcher.install (Phys_addr.reclaim_event phys)
            ~installer:"evil" (fun candidate ->
              (match
                 Phys_addr.allocate phys ~owner:"evil" ~bytes:Addr.page_size
               with
               | _ -> ()
               | exception Phys_addr.Out_of_memory -> saw_clean_oom := true);
              candidate));
  let extra = Phys_addr.allocate phys ~owner:"app" ~bytes:Addr.page_size in
  check bool "nested allocation got a clean Out_of_memory" true !saw_clean_oom;
  check bool "outer allocation still served" true (Capability.is_valid extra);
  check int "one reclamation, not a recursive storm" 1 (Phys_addr.reclaims phys);
  check int "the nested failure was counted" 1 (Phys_addr.oom_failures phys)

let test_phys_second_chance_order () =
  (* Vm.create installs the second-chance policy: a referenced page
     survives one sweep at the cost of its bit; the oldest
     unreferenced page goes first. *)
  let _, _, vm = boot () in
  let phys = vm.Vm.phys in
  let a = Phys_addr.allocate phys ~owner:"t" ~bytes:Addr.page_size in
  let b = Phys_addr.allocate phys ~owner:"t" ~bytes:Addr.page_size in
  let c = Phys_addr.allocate phys ~owner:"t" ~bytes:Addr.page_size in
  Phys_addr.touch phys a;
  let victim_is expect = function
    | Some v -> Capability.equal v expect
    | None -> false in
  check bool "a spared; b is the oldest unreferenced" true
    (victim_is b (Phys_addr.force_reclaim phys));
  check bool "a's bit was consumed: a goes next" true
    (victim_is a (Phys_addr.force_reclaim phys));
  check bool "then c" true (victim_is c (Phys_addr.force_reclaim phys));
  check bool "nothing live: force_reclaim declines" true
    (Phys_addr.force_reclaim phys = None);
  check bool "and declines again (idempotent)" true
    (Phys_addr.force_reclaim phys = None);
  check int "exactly three reclaims recorded" 3 (Phys_addr.reclaims phys)

let test_phys_invalidate_chain () =
  (* add_invalidate is a chain, not a slot: every subscriber sees the
     victim while its capability is still valid. *)
  let _, _, vm = boot () in
  let phys = vm.Vm.phys in
  let p = Phys_addr.allocate phys ~owner:"t" ~bytes:Addr.page_size in
  let first = ref None and second = ref 0 in
  Phys_addr.add_invalidate phys (fun victim ->
    first := Some (Capability.is_valid victim && Capability.equal victim p));
  Phys_addr.add_invalidate phys (fun _ -> incr second);
  ignore (Phys_addr.force_reclaim phys);
  check (option bool) "first subscriber saw the live victim" (Some true) !first;
  check int "second subscriber also ran" 1 !second;
  check bool "frames really went back" false (Capability.is_valid p)

let test_phys_raising_invalidate_resets_guard () =
  (* A reclaim that raises part-way (an invalidate subscriber, once)
     must still drop the re-entrancy guard, or every later allocation
     under pressure sees Out_of_memory instead of reclaiming. *)
  let _, _, vm = boot () in
  let phys = vm.Vm.phys in
  let total = Phys_addr.free_pages phys in
  let _hog =
    Phys_addr.allocate phys ~owner:"hog" ~bytes:(total * Addr.page_size) in
  let armed = ref true in
  Phys_addr.add_invalidate phys (fun _ ->
    if !armed then begin armed := false; failwith "invalidate" end);
  (match Phys_addr.allocate phys ~owner:"app" ~bytes:Addr.page_size with
   | _ -> fail "the raising subscriber's exception should propagate"
   | exception Failure _ -> ());
  let p = Phys_addr.allocate phys ~owner:"app" ~bytes:Addr.page_size in
  check bool "the next allocation under pressure reclaimed" true
    (Capability.is_valid p);
  check int "that reclaim was counted" 1 (Phys_addr.reclaims phys);
  check int "no allocation failed for want of memory" 0
    (Phys_addr.oom_failures phys)

let test_phys_domain_policy () =
  (* A per-domain policy overrides the global second-chance selector
     for that domain's allocations only. *)
  let _, _, vm = boot () in
  let phys = vm.Vm.phys in
  let total = Phys_addr.free_pages phys in
  let old = Phys_addr.allocate phys ~owner:"t" ~bytes:Addr.page_size in
  let young =
    Phys_addr.allocate phys ~owner:"t" ~bytes:((total - 1) * Addr.page_size) in
  (* The video domain prefers sacrificing the youngest allocation. *)
  ignore (must @@ Dispatcher.install (Phys_addr.select_victim_event phys)
            ~installer:"video"
            ~spec:(Dispatcher.Handler_spec.guarded (fun req ->
              String.equal req.Phys_addr.requester "video"))
            (fun _ -> Some young));
  let p = Phys_addr.allocate phys ~owner:"video" ~bytes:Addr.page_size in
  check bool "domain policy chose the young run" false
    (Capability.is_valid young);
  check bool "the old page survived" true (Capability.is_valid old);
  Phys_addr.deallocate phys p;
  (* Another domain still gets the global policy: the oldest goes. *)
  let fill = Phys_addr.allocate phys ~owner:"t"
      ~bytes:(Phys_addr.free_pages phys * Addr.page_size) in
  let q = Phys_addr.allocate phys ~owner:"app" ~bytes:Addr.page_size in
  check bool "global policy took the oldest" false (Capability.is_valid old);
  ignore fill; ignore q

(* ------------------------------------------------------------------ *)
(* Virt_addr                                                          *)
(* ------------------------------------------------------------------ *)

let test_virt_alloc_unique () =
  let _, _, vm = boot () in
  let a = Virt_addr.allocate vm.Vm.virt ~asid:1 ~bytes:100 in
  let b = Virt_addr.allocate vm.Vm.virt ~asid:1 ~bytes:100 in
  let ra = Virt_addr.region a and rb = Virt_addr.region b in
  check bool "disjoint" true
    (ra.Virt_addr.va + ra.Virt_addr.bytes <= rb.Virt_addr.va
     || rb.Virt_addr.va + rb.Virt_addr.bytes <= ra.Virt_addr.va);
  check int "page aligned" 0 (ra.Virt_addr.va land Addr.page_mask);
  check int "rounded to pages" Addr.page_size ra.Virt_addr.bytes

let test_virt_same_va_different_asid () =
  (* The asid makes the address unique (paper: capability referent is
     va, length, and address space identifier). *)
  let _, _, vm = boot () in
  let a = Virt_addr.allocate vm.Vm.virt ~asid:1 ~bytes:4096 in
  let b = Virt_addr.allocate vm.Vm.virt ~asid:2 ~bytes:4096 in
  check int "same va in different spaces"
    (Virt_addr.region a).Virt_addr.va (Virt_addr.region b).Virt_addr.va

let test_virt_dealloc_reuse () =
  let _, _, vm = boot () in
  let a = Virt_addr.allocate vm.Vm.virt ~asid:1 ~bytes:8192 in
  let va = (Virt_addr.region a).Virt_addr.va in
  Virt_addr.deallocate vm.Vm.virt a;
  let b = Virt_addr.allocate vm.Vm.virt ~asid:1 ~bytes:8192 in
  check int "hole reused" va (Virt_addr.region b).Virt_addr.va

(* ------------------------------------------------------------------ *)
(* Translation                                                        *)
(* ------------------------------------------------------------------ *)

let make_mapped vm ~pages =
  let ctx = Translation.create_context vm.Vm.trans ~owner:"t" in
  let vaddr = Virt_addr.allocate vm.Vm.virt ~asid:(Translation.context_id ctx)
      ~bytes:(pages * Addr.page_size) in
  let page = Phys_addr.allocate vm.Vm.phys
      ~attrib:{ Phys_addr.contiguous = true }
      ~owner:"t" ~bytes:(pages * Addr.page_size) in
  Translation.add_mapping vm.Vm.trans ctx vaddr page Addr.prot_read_write;
  (ctx, vaddr, page)

let test_translation_roundtrip () =
  let m, _, vm = boot () in
  let ctx, vaddr, _ = make_mapped vm ~pages:2 in
  let va = (Virt_addr.region vaddr).Virt_addr.va in
  Cpu.set_context m.Machine.cpu (Some (Translation.mmu_context ctx));
  Cpu.store_word m.Machine.cpu ~va 123L;
  check int64 "store/load through mapping" 123L (Cpu.load_word m.Machine.cpu ~va)

let test_translation_events_classified () =
  let m, _, vm = boot () in
  let ctx, vaddr, _ = make_mapped vm ~pages:1 in
  let region = Virt_addr.region vaddr in
  Cpu.set_context m.Machine.cpu (Some (Translation.mmu_context ctx));
  (* Protection fault: write a read-only page; handler upgrades it. *)
  ignore (Translation.protect vm.Vm.trans ctx ~va:region.Virt_addr.va
            ~npages:1 Addr.prot_read);
  ignore (must @@ Dispatcher.install (Translation.protection_fault vm.Vm.trans)
            ~installer:"fixer"
            (fun f ->
              ignore (Translation.protect vm.Vm.trans f.Translation.ctx
                        ~va:f.Translation.va ~npages:1 Addr.prot_read_write)));
  Cpu.store_word m.Machine.cpu ~va:region.Virt_addr.va 5L;
  let st = Translation.stats vm.Vm.trans in
  check int "protection fault seen" 1 st.Translation.faults_protection;
  (* Bad address: outside any attached region; handler maps nothing,
     so the CPU eventually gives up. *)
  (try
     ignore (Cpu.load_word m.Machine.cpu ~va:0xdead0000);
     fail "expected unresolved fault"
   with Cpu.Unhandled_trap _ -> ());
  let st = Translation.stats vm.Vm.trans in
  check bool "bad address seen" true (st.Translation.faults_bad_address > 0);
  check int "not misclassified as missing page" 0
    st.Translation.faults_not_present

let test_translation_page_not_present_event () =
  let m, _, vm = boot () in
  let ctx = Translation.create_context vm.Vm.trans ~owner:"t" in
  let vaddr = Virt_addr.allocate vm.Vm.virt
      ~asid:(Translation.context_id ctx) ~bytes:Addr.page_size in
  Translation.attach_region ctx (Virt_addr.region vaddr);
  Cpu.set_context m.Machine.cpu (Some (Translation.mmu_context ctx));
  (* Lazy mapping: fault in a zero page on first touch. *)
  ignore (must @@ Dispatcher.install (Translation.page_not_present vm.Vm.trans)
            ~installer:"lazy"
            (fun f ->
              let page = Phys_addr.allocate vm.Vm.phys ~owner:"lazy"
                  ~bytes:Addr.page_size in
              Translation.add_mapping vm.Vm.trans f.Translation.ctx vaddr page
                Addr.prot_read_write));
  let va = (Virt_addr.region vaddr).Virt_addr.va in
  Cpu.store_word m.Machine.cpu ~va 9L;
  check int64 "lazily mapped" 9L (Cpu.load_word m.Machine.cpu ~va);
  check int "one fault" 1
    (Translation.stats vm.Vm.trans).Translation.faults_not_present

let test_translation_dirty_tracking () =
  let m, _, vm = boot () in
  let ctx, vaddr, _ = make_mapped vm ~pages:2 in
  let va = (Virt_addr.region vaddr).Virt_addr.va in
  Cpu.set_context m.Machine.cpu (Some (Translation.mmu_context ctx));
  check bool "clean before" false (Translation.is_dirty vm.Vm.trans ctx ~va);
  ignore (Cpu.load_word m.Machine.cpu ~va);
  check bool "read does not dirty" false (Translation.is_dirty vm.Vm.trans ctx ~va);
  Cpu.store_word m.Machine.cpu ~va 1L;
  check bool "write dirties" true (Translation.is_dirty vm.Vm.trans ctx ~va)

let test_translation_protect_costs () =
  let m, _, vm = boot () in
  let ctx, vaddr, _ = make_mapped vm ~pages:100 in
  let va = (Virt_addr.region vaddr).Virt_addr.va in
  let cost = m.Machine.cost in
  let one = Clock.stamp m.Machine.clock (fun () ->
    ignore (Translation.protect vm.Vm.trans ctx ~va ~npages:1 Addr.prot_read)) in
  let hundred = Clock.stamp m.Machine.clock (fun () ->
    ignore (Translation.protect vm.Vm.trans ctx ~va ~npages:100
              Addr.prot_read_write)) in
  let us c = Spin_machine.Cost.cycles_to_us cost c in
  (* Table 4: Prot1 = 16 us, Prot100 = 213 us. Allow generous slack;
     exact numbers are the bench's business. *)
  check bool "Prot1 near 16us" true (us one > 8. && us one < 32.);
  check bool "Prot100 near 213us" true (us hundred > 120. && us hundred < 320.)

let test_translation_reclaim_invalidates () =
  let m, _, vm = boot () in
  let ctx, vaddr, page = make_mapped vm ~pages:1 in
  let va = (Virt_addr.region vaddr).Virt_addr.va in
  Cpu.set_context m.Machine.cpu (Some (Translation.mmu_context ctx));
  Cpu.store_word m.Machine.cpu ~va 7L;
  (* Force the physical service to reclaim; our page is the oldest
     live allocation, so it is the candidate. *)
  (match Phys_addr.force_reclaim vm.Vm.phys with
   | Some victim -> check bool "our page died" true (Capability.equal victim page)
   | None -> fail "nothing reclaimed");
  check bool "mapping gone" true
    (Mmu.lookup (Translation.mmu_context ctx) ~vpn:(Addr.vpn_of_va va) = None);
  check bool "invalidations counted" true
    ((Translation.stats vm.Vm.trans).Translation.invalidations > 0)

let test_translation_context_destroy () =
  let _, _, vm = boot () in
  let ctx, _, _ = make_mapped vm ~pages:1 in
  let n = Translation.contexts vm.Vm.trans in
  Translation.destroy_context vm.Vm.trans ctx;
  check int "context gone" (n - 1) (Translation.contexts vm.Vm.trans);
  Translation.destroy_context vm.Vm.trans ctx  (* idempotent *)

(* ------------------------------------------------------------------ *)
(* Pageout daemon                                                     *)
(* ------------------------------------------------------------------ *)

let boot_with_sched () =
  let m = Machine.create ~name:"vmtest" ~mem_mb:2 () in
  let d = Dispatcher.create m.Machine.clock in
  let vm = Vm.create m d in
  Machine.set_trap_handler m
    (fun trap -> if Vm.handle_trap vm trap then 0 else -1);
  let sched = Sched.create m.Machine.sim d in
  (m, vm, sched)

let test_pageout_low_water () =
  let m, vm, sched = boot_with_sched () in
  let phys = vm.Vm.phys in
  let total = Phys_addr.total_pages phys in
  (* Drive the pool under the low-water mark with hog allocations. *)
  let hogs = ref [] in
  for _ = 1 to total - 4 do
    hogs :=
      Phys_addr.allocate phys ~owner:"hog" ~bytes:Addr.page_size :: !hogs
  done;
  let high_water = 16 in
  let pd = Pageout.create ~low_water:8 ~high_water sched phys in
  Pageout.start pd;
  run_until m.Machine.sim sched
    (fun () ->
      Phys_addr.free_pages phys >= high_water
      || Clock.now_us m.Machine.clock > 1_000_000.);
  Pageout.stop pd;
  Sched.run sched;                            (* drain the daemon strand *)
  check bool "daemon released pages" true (Pageout.released pd > 0);
  check bool "pool recovered past high water" true
    (Phys_addr.free_pages phys >= high_water)

(* ------------------------------------------------------------------ *)
(* Vm_ext (Table 4 extension)                                         *)
(* ------------------------------------------------------------------ *)

let test_vm_ext_dirty () =
  let _, _, vm = boot () in
  let ext = Vm_ext.create vm ~app:"bench" ~pages:4 in
  Vm_ext.activate ext;
  check bool "clean" false (Vm_ext.dirty ext ~page:2);
  Vm_ext.write ext ~page:2 1L;
  check bool "dirty" true (Vm_ext.dirty ext ~page:2)

let test_vm_ext_fault_reflection () =
  (* The Appel1 pattern: protect a page, fault on it, resolve in the
     user's handler (unprotect + protect another), resume. *)
  let _, _, vm = boot () in
  let ext = Vm_ext.create vm ~app:"bench" ~pages:2 in
  Vm_ext.activate ext;
  Vm_ext.protect ext ~first:0 ~count:1 Addr.prot_read;
  let faults = ref 0 in
  Vm_ext.on_protection_fault ext (fun page ->
    incr faults;
    Vm_ext.protect ext ~first:page ~count:1 Addr.prot_read_write;
    Vm_ext.protect ext ~first:1 ~count:1 Addr.prot_read);
  Vm_ext.write ext ~page:0 5L;             (* faults, handler fixes *)
  check int "one fault taken" 1 !faults;
  check int64 "write landed after resume" 5L (Vm_ext.read ext ~page:0);
  (* Page 1 is now protected by the handler. *)
  Vm_ext.on_protection_fault ext (fun page ->
    incr faults;
    Vm_ext.protect ext ~first:page ~count:1 Addr.prot_read_write);
  Vm_ext.write ext ~page:1 6L;
  check int "second fault" 2 !faults

let test_vm_ext_guard_isolation () =
  (* Two applications' handlers do not see each other's faults. *)
  let _, _, vm = boot () in
  let a = Vm_ext.create vm ~app:"a" ~pages:1 in
  let b = Vm_ext.create vm ~app:"b" ~pages:1 in
  let a_faults = ref 0 and b_faults = ref 0 in
  Vm_ext.on_protection_fault a (fun page ->
    incr a_faults; Vm_ext.protect a ~first:page ~count:1 Addr.prot_read_write);
  Vm_ext.on_protection_fault b (fun page ->
    incr b_faults; Vm_ext.protect b ~first:page ~count:1 Addr.prot_read_write);
  Vm_ext.protect a ~first:0 ~count:1 Addr.prot_read;
  Vm_ext.activate a;
  Vm_ext.write a ~page:0 1L;
  check int "a handled" 1 !a_faults;
  check int "b undisturbed" 0 !b_faults

let () =
  Alcotest.run "spin_vm"
    [
      ( "phys_addr",
        [
          test_case "allocate/deallocate" `Quick test_phys_alloc_dealloc;
          test_case "contiguous attribute" `Quick test_phys_contiguous;
          test_case "reclaim event with volunteer" `Quick test_phys_reclaim_event;
          test_case "out of memory" `Quick test_phys_out_of_memory;
          test_case "reclaim handler re-entrancy" `Quick
            test_phys_reclaim_reentrancy;
          test_case "second-chance victim order" `Quick
            test_phys_second_chance_order;
          test_case "invalidate chain" `Quick test_phys_invalidate_chain;
          test_case "raising invalidate resets the reclaim guard" `Quick
            test_phys_raising_invalidate_resets_guard;
          test_case "per-domain policy" `Quick test_phys_domain_policy;
        ] );
      ( "virt_addr",
        [
          test_case "unique page-aligned regions" `Quick test_virt_alloc_unique;
          test_case "asid disambiguates" `Quick test_virt_same_va_different_asid;
          test_case "deallocation reuses holes" `Quick test_virt_dealloc_reuse;
        ] );
      ( "translation",
        [
          test_case "map and access" `Quick test_translation_roundtrip;
          test_case "fault classification" `Quick test_translation_events_classified;
          test_case "page-not-present event" `Quick test_translation_page_not_present_event;
          test_case "dirty/referenced bits" `Quick test_translation_dirty_tracking;
          test_case "protection change costs" `Quick test_translation_protect_costs;
          test_case "reclaim invalidates mappings" `Quick test_translation_reclaim_invalidates;
          test_case "context destroy" `Quick test_translation_context_destroy;
        ] );
      ( "pageout",
        [
          test_case "low-water daemon" `Quick test_pageout_low_water;
        ] );
      ( "vm_ext",
        [
          test_case "dirty query" `Quick test_vm_ext_dirty;
          test_case "fault reflection (Appel1)" `Quick test_vm_ext_fault_reflection;
          test_case "per-app guard isolation" `Quick test_vm_ext_guard_isolation;
        ] );
    ]

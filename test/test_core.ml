(* Tests for the SPIN extension infrastructure: universal values,
   capabilities, externalized references, safe object files, protection
   domains / dynamic linking, the nameserver, and the event
   dispatcher. *)

open Alcotest
open Spin_core
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost

let clock () = Clock.create Cost.alpha_133

let resolve_ok ~source ~target =
  match Kdomain.resolve ~source ~target with
  | Ok n -> n
  | Error e -> fail (Kdomain.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Univ                                                               *)
(* ------------------------------------------------------------------ *)

let test_univ_roundtrip () =
  let ti : int Univ.tag = Univ.tag ~name:"int" () in
  let ts : string Univ.tag = Univ.tag ~name:"string" () in
  let u = Univ.pack ti 42 in
  check (option int) "same tag" (Some 42) (Univ.unpack ti u);
  check (option string) "wrong tag" None (Univ.unpack ts (Univ.pack ti 1))

let test_univ_branding () =
  (* Two tags at the same type do not alias: branding. *)
  let t1 : int Univ.tag = Univ.tag ~name:"Console.T" () in
  let t2 : int Univ.tag = Univ.tag ~name:"Console.T" () in
  let u = Univ.pack t1 7 in
  check (option int) "own tag" (Some 7) (Univ.unpack t1 u);
  check (option int) "identically-named stranger" None (Univ.unpack t2 u)

(* ------------------------------------------------------------------ *)
(* Capability                                                         *)
(* ------------------------------------------------------------------ *)

let test_capability_lifecycle () =
  let c = Capability.mint ~owner:"Console" "the-console" in
  check string "deref" "the-console" (Capability.deref c);
  check bool "valid" true (Capability.is_valid c);
  check string "owner" "Console" (Capability.owner c);
  Capability.revoke c;
  check bool "revoked" false (Capability.is_valid c);
  check (option string) "deref_opt" None (Capability.deref_opt c);
  (try
     ignore (Capability.deref c);
     fail "expected Revoked"
   with Capability.Revoked _ -> ());
  Capability.revoke c (* idempotent *)

let test_capability_ids_unique () =
  let a = Capability.mint ~owner:"x" 1 and b = Capability.mint ~owner:"x" 1 in
  check bool "distinct ids" true (Capability.id a <> Capability.id b);
  check bool "not equal" false (Capability.equal a b);
  check bool "self equal" true (Capability.equal a a)

let test_capability_epoch_revocation () =
  (* Generation revocation in O(1): advancing the owner's epoch kills
     every capability minted before it, without touching them. *)
  let owner = "EpochSvc" in
  let old_cap = Capability.mint ~owner "gen1" in
  let before = Capability.epoch old_cap in
  let bystander = Capability.mint ~owner:"OtherSvc" "untouched" in
  let e = Capability.advance_epoch ~owner in
  check int "epoch advanced" (before + 1) e;
  check int "later mints carry the new epoch" e
    (Capability.epoch (Capability.mint ~owner "gen2"));
  check bool "stale is invalid" false (Capability.is_valid old_cap);
  check (option string) "deref_opt is None" None
    (Capability.deref_opt old_cap);
  (try
     ignore (Capability.deref old_cap);
     fail "expected Revoked"
   with Capability.Revoked _ -> ());
  (* Other owners' generations are independent. *)
  check string "other owner's capability unaffected" "untouched"
    (Capability.deref bystander);
  (* Minting resumes under the new epoch. *)
  let fresh = Capability.mint ~owner "gen2" in
  check string "fresh capability lives" "gen2" (Capability.deref fresh);
  check int "stamped with the new epoch" e (Capability.epoch fresh)

(* ------------------------------------------------------------------ *)
(* Extern_ref                                                         *)
(* ------------------------------------------------------------------ *)

let test_extern_ref_roundtrip () =
  let tag : string Univ.tag = Univ.tag ~name:"PhysAddr.T" () in
  let tbl = Extern_ref.create () in
  let i = Extern_ref.externalize tbl tag "page-7" in
  check (option string) "internalize" (Some "page-7")
    (Extern_ref.internalize tbl tag i);
  check int "live" 1 (Extern_ref.live tbl)

let test_extern_ref_forgery () =
  let tag : string Univ.tag = Univ.tag ~name:"PhysAddr.T" () in
  let other : string Univ.tag = Univ.tag ~name:"VirtAddr.T" () in
  let tbl = Extern_ref.create () in
  let i = Extern_ref.externalize tbl tag "page-7" in
  check (option string) "forged index" None
    (Extern_ref.internalize tbl tag (i + 1000));
  check (option string) "wrong resource type" None
    (Extern_ref.internalize tbl other i);
  Extern_ref.release tbl i;
  check (option string) "stale index" None (Extern_ref.internalize tbl tag i);
  check int "live after release" 0 (Extern_ref.live tbl)

let test_extern_ref_per_app_isolation () =
  let tag : int Univ.tag = Univ.tag ~name:"Strand.T" () in
  let a = Extern_ref.create () and b = Extern_ref.create () in
  let i = Extern_ref.externalize a tag 5 in
  check (option int) "other app's table" None (Extern_ref.internalize b tag i)

let test_extern_ref_epoch_retires_indices () =
  let tag : string Univ.tag = Univ.tag ~name:"Res.T" () in
  let tbl = Extern_ref.create () in
  let i1 = Extern_ref.externalize tbl tag "one" in
  let i2 = Extern_ref.externalize tbl tag "two" in
  check int "epoch starts at zero" 0 (Extern_ref.epoch tbl);
  check int "next epoch" 1 (Extern_ref.advance_epoch tbl);
  check (option string) "retired index misses" None
    (Extern_ref.internalize tbl tag i1);
  check (option string) "all earlier stamps retired" None
    (Extern_ref.internalize tbl tag i2);
  (* New-epoch entries coexist with the stale slots. *)
  let i3 = Extern_ref.externalize tbl tag "three" in
  check (option string) "current epoch lives" (Some "three")
    (Extern_ref.internalize tbl tag i3);
  check int "stale slots still held" 3 (Extern_ref.live tbl)

(* ------------------------------------------------------------------ *)
(* Object files and domains                                           *)
(* ------------------------------------------------------------------ *)

let proc_ty = Ty.Proc ([ Ty.Text ], Ty.Unit)

let write_tag : (string -> unit) Univ.tag = Univ.tag ~name:"proc" ()

(* Build a "Console" module object file exporting Write. *)
let console_obj ?(safety = Object_file.Compiler_signed) out () =
  let b = Object_file.Builder.create ~name:"console.o" ~safety () in
  let sym = Symbol.make ~intf:"Console" ~name:"Write" proc_ty in
  Object_file.Builder.export b sym
    (Univ.pack write_tag (fun msg -> out := !out @ [ msg ]));
  Object_file.Builder.build b

(* Build a "Gatekeeper" client importing Console.Write. *)
let gatekeeper_obj ?(ty = proc_ty) ?init_log () =
  let b = Object_file.Builder.create ~name:"gatekeeper.o"
      ~safety:Object_file.Compiler_signed () in
  let cell = Object_file.Builder.import b
      (Symbol.make ~intf:"Console" ~name:"Write" ty) in
  (match init_log with
   | Some log ->
     Object_file.Builder.set_init b (fun () -> log := "init" :: !log)
   | None -> ());
  (Object_file.Builder.build b, cell)

let test_domain_rejects_unsigned () =
  let out = ref [] in
  match Kdomain.create (console_obj ~safety:Object_file.Unsigned out ()) with
  | Error (Kdomain.Unsafe_object "console.o") -> ()
  | Ok _ | Error _ -> fail "unsigned object must be rejected"

let test_domain_accepts_asserted () =
  (* The DEC OSF/1 C drivers path: safe by kernel assertion. *)
  let out = ref [] in
  match Kdomain.create (console_obj ~safety:Object_file.Asserted_safe out ()) with
  | Ok _ -> ()
  | Error e -> fail (Kdomain.error_to_string e)

let test_domain_resolve_links_and_runs () =
  let out = ref [] in
  let source = Kdomain.create_exn (console_obj out ()) in
  let obj, cell = gatekeeper_obj () in
  let target = Kdomain.create_exn obj in
  check bool "unresolved before" false (Kdomain.fully_resolved target);
  let patched = resolve_ok ~source ~target in
  check int "one symbol patched" 1 patched;
  check bool "resolved after" true (Kdomain.fully_resolved target);
  (* The client calls through its import cell at memory speed. *)
  (match !cell with
   | Some u ->
     (match Univ.unpack write_tag u with
      | Some write -> write "Intruder Alert"
      | None -> fail "export had wrong representation")
   | None -> fail "cell not patched");
  check (list string) "call went through" [ "Intruder Alert" ] !out

let test_domain_type_conflict () =
  (* Gatekeeper declares Console.Write with a conflicting signature. *)
  let out = ref [] in
  let source = Kdomain.create_exn (console_obj out ()) in
  let obj, cell = gatekeeper_obj ~ty:(Ty.Proc ([ Ty.Int ], Ty.Unit)) () in
  let target = Kdomain.create_exn obj in
  (match Kdomain.resolve ~source ~target with
   | Error (Kdomain.Type_mismatch { symbol = "Console.Write"; _ }) -> ()
   | Ok _ -> fail "type conflict must fail"
   | Error e -> fail (Kdomain.error_to_string e));
  check bool "cell untouched" true (Option.is_none !cell)

let test_domain_resolve_atomic () =
  (* One good import, one conflicting: nothing is patched. *)
  let b = Object_file.Builder.create ~name:"client.o"
      ~safety:Object_file.Compiler_signed () in
  let good = Object_file.Builder.import b
      (Symbol.make ~intf:"Console" ~name:"Write" proc_ty) in
  let _bad = Object_file.Builder.import b
      (Symbol.make ~intf:"Console" ~name:"Read" Ty.Int) in
  let target = Kdomain.create_exn (Object_file.Builder.build b) in
  let sb = Object_file.Builder.create ~name:"console.o"
      ~safety:Object_file.Compiler_signed () in
  Object_file.Builder.export sb
    (Symbol.make ~intf:"Console" ~name:"Write" proc_ty)
    (Univ.pack write_tag ignore);
  Object_file.Builder.export sb
    (Symbol.make ~intf:"Console" ~name:"Read" Ty.Text)
    (Univ.pack write_tag ignore);
  let source = Kdomain.create_exn (Object_file.Builder.build sb) in
  (match Kdomain.resolve ~source ~target with
   | Error _ -> ()
   | Ok _ -> fail "expected type conflict");
  check bool "good import also left unpatched" true (Option.is_none !good)

let test_domain_resolve_is_directional () =
  (* Resolve only patches the target; cross-linking needs two calls. *)
  let out = ref [] in
  let a = Kdomain.create_exn (console_obj out ()) in
  let obj, _ = gatekeeper_obj () in
  let b = Kdomain.create_exn obj in
  ignore (resolve_ok ~source:b ~target:a);  (* nothing to patch *)
  check bool "b still unresolved" false (Kdomain.fully_resolved b);
  ignore (resolve_ok ~source:a ~target:b);
  check bool "b resolved" true (Kdomain.fully_resolved b)

let test_domain_combine () =
  let out = ref [] in
  let console = Kdomain.create_exn (console_obj out ()) in
  let extra = Kdomain.create_from_module ~name:"Extra"
      ~exports:[ (Symbol.make ~intf:"Extra" ~name:"Noop" Ty.Unit,
                  Univ.pack write_tag ignore) ] in
  let public = Kdomain.combine ~name:"SpinPublic" console extra in
  check int "union of exports" 2 (List.length (Kdomain.exports public));
  check bool "lookup via aggregate" true
    (Option.is_some (Kdomain.lookup public "Console.Write"));
  let obj, _ = gatekeeper_obj () in
  let client = Kdomain.create_exn obj in
  ignore (resolve_ok ~source:public ~target:client);
  check bool "client resolved from aggregate" true (Kdomain.fully_resolved client)

let test_domain_init_once () =
  let log = ref [] in
  let obj, _ = gatekeeper_obj ~init_log:log () in
  let d = Kdomain.create_exn obj in
  Kdomain.initialize d;
  Kdomain.initialize d;
  check (list string) "initializer ran once" [ "init" ] !log

(* ------------------------------------------------------------------ *)
(* Nameserver                                                         *)
(* ------------------------------------------------------------------ *)

let test_nameserver_lookup () =
  let ns = Nameserver.create (clock ()) in
  let d = Kdomain.create_from_module ~name:"ConsoleService" ~exports:[] in
  Nameserver.register ns ~name:"ConsoleService" d;
  (match Nameserver.lookup ns ~name:"ConsoleService" { Nameserver.who = "anyone" } with
   | Ok d' -> check string "same domain" "ConsoleService" (Kdomain.name d')
   | Error _ -> fail "lookup failed");
  (match Nameserver.lookup ns ~name:"NoSuch" { Nameserver.who = "anyone" } with
   | Error Nameserver.Unknown_name -> ()
   | _ -> fail "expected unknown name")

let test_nameserver_authorization () =
  let ns = Nameserver.create (clock ()) in
  let d = Kdomain.create_from_module ~name:"Disk" ~exports:[] in
  Nameserver.register ns ~name:"DiskService"
    ~authorize:(fun { Nameserver.who } -> String.equal who "fileserver") d;
  (match Nameserver.lookup ns ~name:"DiskService" { Nameserver.who = "fileserver" } with
   | Ok _ -> ()
   | Error _ -> fail "authorized importer denied");
  (match Nameserver.lookup ns ~name:"DiskService" { Nameserver.who = "game" } with
   | Error Nameserver.Denied -> ()
   | _ -> fail "unauthorized importer admitted")

let test_nameserver_reregister () =
  let ns = Nameserver.create (clock ()) in
  let v1 = Kdomain.create_from_module ~name:"v1" ~exports:[] in
  let v2 = Kdomain.create_from_module ~name:"v2" ~exports:[] in
  Nameserver.register ns ~name:"Svc" v1;
  Nameserver.register ns ~name:"Svc" v2;
  (match Nameserver.lookup ns ~name:"Svc" { Nameserver.who = "x" } with
   | Ok d -> check string "new version wins" "v2" (Kdomain.name d)
   | Error _ -> fail "lookup failed")

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                         *)
(* ------------------------------------------------------------------ *)

let mk_dispatcher () =
  let c = clock () in
  (c, Dispatcher.create c)

let must r = Dispatcher.ok_exn ~site:"test_core" r

let async = { Dispatcher.Handler_spec.default with async = true }

(* A stand-in for the scheduler's spawn hook: each asynchronous body is
   queued, and the returned flush runs the queue in order and says how
   many ran. *)
let deferring d =
  let q = Queue.create () in
  Dispatcher.set_async_spawn d (fun thunk -> Queue.add thunk q);
  fun () ->
    let n = Queue.length q in
    while not (Queue.is_empty q) do (Queue.pop q) () done;
    n

let test_dispatch_fast_path_is_a_call () =
  let c, d = mk_dispatcher () in
  let e = Dispatcher.declare d ~name:"Console.Write" ~owner:"Console"
      (fun x -> x * 2) in
  let before = Clock.now c in
  check int "default runs" 14 (Dispatcher.raise_event e 7);
  check int "costs one cross-module call"
    Cost.alpha_133.Cost.cross_module_call
    (Clock.now c - before);
  let s = Dispatcher.stats e in
  check int "fast path taken" 1 s.Dispatcher.fast_path

let test_dispatch_multiple_handlers_last_wins () =
  let _, d = mk_dispatcher () in
  let e = Dispatcher.declare d ~name:"Ev" ~owner:"M" (fun () -> "primary") in
  ignore (must (Dispatcher.install e ~installer:"ext1" (fun () -> "ext1")));
  ignore (must (Dispatcher.install e ~installer:"ext2" (fun () -> "ext2")));
  check string "result of final handler" "ext2" (Dispatcher.raise_event e ());
  check int "three handlers" 3 (Dispatcher.handler_count e)

let test_dispatch_guards () =
  (* The IP-style per-instance dispatch: guards select by packet type. *)
  let _, d = mk_dispatcher () in
  let log = ref [] in
  let e = Dispatcher.declare d ~name:"IP.PacketArrived" ~owner:"IP"
      (fun _ -> ()) in
  ignore
    (must
       (Dispatcher.install e ~installer:"UDP"
          ~spec:(Dispatcher.Handler_spec.guarded (fun proto -> proto = 17))
          (fun _ -> log := "udp" :: !log)));
  ignore
    (must
       (Dispatcher.install e ~installer:"TCP"
          ~spec:(Dispatcher.Handler_spec.guarded (fun proto -> proto = 6))
          (fun _ -> log := "tcp" :: !log)));
  Dispatcher.raise_event e 17;
  Dispatcher.raise_event e 6;
  Dispatcher.raise_event e 1;              (* ICMP: nobody but primary *)
  check (list string) "routed by guard" [ "udp"; "tcp" ] (List.rev !log);
  let s = Dispatcher.stats e in
  (* raise(17): tcp guard rejects; raise(6): udp rejects; raise(1): both. *)
  check int "guard rejections" 4 s.Dispatcher.guard_rejections

let test_dispatch_guard_costs_linear () =
  (* Section 5.5: cost grows linearly in the number of false guards. *)
  let c, d = mk_dispatcher () in
  let e = Dispatcher.declare d ~name:"UDP.PacketArrived" ~owner:"UDP"
      (fun _ -> ()) in
  for _ = 1 to 50 do
    ignore
      (must
         (Dispatcher.install e ~installer:"watcher"
            ~spec:(Dispatcher.Handler_spec.guarded (fun _ -> false))
            (fun _ -> ())))
  done;
  let spent = Clock.stamp c (fun () -> Dispatcher.raise_event e ()) in
  let costs = Clock.cost c in
  let expected =
    costs.Cost.dispatch_fixed
    + (50 * costs.Cost.guard_eval)
    + costs.Cost.handler_invoke (* the primary still runs *) in
  check int "50 false guards" expected spent

let test_dispatch_stacked_guards_conjoin () =
  let _, d = mk_dispatcher () in
  let hits = ref 0 in
  let e = Dispatcher.declare d ~name:"Ev" ~owner:"M"
      (fun _ -> ()) in
  let h =
    must
      (Dispatcher.install e ~installer:"ext"
         ~spec:(Dispatcher.Handler_spec.guarded (fun x -> x > 0))
         (fun _ -> incr hits)) in
  Dispatcher.add_guard h (fun x -> x < 10);
  Dispatcher.raise_event e 5;              (* passes both *)
  Dispatcher.raise_event e 50;             (* fails second *)
  Dispatcher.raise_event e (-1);           (* fails first *)
  check int "conjunction" 1 !hits

let test_dispatch_auth_deny () =
  let _, d = mk_dispatcher () in
  let e = Dispatcher.declare d ~name:"Sched.Block" ~owner:"Sched"
      ~auth:(fun ~installer ->
        if String.equal installer "trusted" then
          Dispatcher.Allow
            { guard = None; bound_cycles = None; force_async = false }
        else Dispatcher.Deny)
      (fun () -> ()) in
  (match Dispatcher.install e ~installer:"rogue" (fun () -> ()) with
   | Error Dispatcher.Denied -> ()
   | Error err ->
     fail ("rogue install: " ^ Dispatcher.install_error_to_string err)
   | Ok _ -> fail "rogue install admitted");
  (match Dispatcher.install e ~installer:"trusted" (fun () -> ()) with
   | Ok _ -> ()
   | Error err ->
     fail ("trusted install: " ^ Dispatcher.install_error_to_string err))

let test_dispatch_auth_imposed_guard () =
  (* The primary attaches its own guard to every installation, as the
     IP module does with protocol types. *)
  let _, d = mk_dispatcher () in
  let seen = ref [] in
  let e = Dispatcher.declare d ~name:"IP.PacketArrived" ~owner:"IP"
      ~auth:(fun ~installer:_ ->
        Dispatcher.Allow {
          guard = Some (fun proto -> proto = 17);
          bound_cycles = None; force_async = false })
      (fun _ -> ()) in
  ignore (must (Dispatcher.install e ~installer:"udp" (fun p -> seen := p :: !seen)));
  Dispatcher.raise_event e 17;
  Dispatcher.raise_event e 6;
  check (list int) "primary's guard filters" [ 17 ] (List.rev !seen)

let test_dispatch_remove_primary () =
  let _, d = mk_dispatcher () in
  let e = Dispatcher.declare d ~name:"Ev" ~owner:"M"
      ~allow_remove_primary:(fun ~requester -> String.equal requester "new-impl")
      (fun () -> "old") in
  (match Dispatcher.remove_primary e ~requester:"rogue" with
   | Error `Denied -> ()
   | Ok () -> fail "rogue removal admitted");
  ignore (must (Dispatcher.install e ~installer:"new-impl" (fun () -> "new")));
  (match Dispatcher.remove_primary e ~requester:"new-impl" with
   | Ok () -> ()
   | Error `Denied -> fail "authorized removal denied");
  check string "replacement serves" "new" (Dispatcher.raise_event e ());
  check int "one handler left" 1 (Dispatcher.handler_count e)

let test_dispatch_no_handler () =
  let _, d = mk_dispatcher () in
  let e = Dispatcher.declare d ~name:"Ev" ~owner:"M" (fun () -> 1) in
  (match Dispatcher.remove_primary e ~requester:"M" with
   | Error `Denied -> () | Ok () -> fail "default must deny removal");
  let e2 = Dispatcher.declare d ~name:"Ev2" ~owner:"M"
      ~allow_remove_primary:(fun ~requester:_ -> true) (fun () -> 1) in
  (match Dispatcher.remove_primary e2 ~requester:"x" with
   | Ok () -> () | Error `Denied -> fail "removal should pass");
  (try
     ignore (Dispatcher.raise_event e2 ());
     fail "expected No_handler"
   with Dispatcher.No_handler "Ev2" -> ());
  check int "raise_default falls back" 9 (Dispatcher.raise_default e2 9 ())

(* Regression: [raise_default] used to catch any [No_handler], so an
   empty event raised inside the primary read as the outer event having
   no handler: the fallback came back and the rest of the primary was
   skipped. *)
let test_raise_default_keeps_nested_no_handler () =
  let _, d = mk_dispatcher () in
  let inner = Dispatcher.declare d ~name:"Inner" ~owner:"M"
      ~allow_remove_primary:(fun ~requester:_ -> true) (fun (_ : int) -> 0) in
  ignore (Dispatcher.remove_primary inner ~requester:"M");
  let finished = ref false in
  let outer = Dispatcher.declare d ~name:"Outer" ~owner:"M" (fun x ->
      let r = Dispatcher.raise_event inner x in
      finished := true;
      r) in
  (match Dispatcher.raise_default outer (-1) 5 with
   | r -> failf "the fallback hid the inner No_handler: got %d" r
   | exception Dispatcher.No_handler "Inner" -> ());
  check bool "the primary stopped where the inner raise failed" false !finished;
  (* An answered inner raise lets the outer one finish normally. *)
  ignore (Dispatcher.install inner ~installer:"x" (fun x -> x * 2));
  check int "outer result" 10 (Dispatcher.raise_default outer (-1) 5);
  check bool "the primary ran to the end" true !finished

let test_dispatch_combiner () =
  let _, d = mk_dispatcher () in
  let e = Dispatcher.declare d ~name:"Sum" ~owner:"M"
      ~combine:( + ) (fun x -> x) in
  ignore (must (Dispatcher.install e ~installer:"a" (fun x -> x * 10)));
  ignore (must (Dispatcher.install e ~installer:"b" (fun x -> x * 100)));
  check int "combined result" 333 (Dispatcher.raise_event e 3)

let test_dispatch_async_deferred () =
  let _, d = mk_dispatcher () in
  let flush = deferring d in
  let ran = ref false in
  let e = Dispatcher.declare d ~name:"Ev" ~owner:"M"
      (fun _ -> ()) in
  ignore (must (Dispatcher.install e ~installer:"bg" ~spec:async (fun _ -> ran := true)));
  Dispatcher.raise_event e ();
  check bool "raiser not blocked on handler" false !ran;
  check int "one deferred" 1 (flush ());
  check bool "ran at flush" true !ran

let test_dispatch_async_uninstall_before_flush () =
  (* Regression: an async handler uninstalled (or evicted) between
     the raise and the deferred thunk running still executed — dispatch
     after uninstall. The thunk must re-check liveness at run time. *)
  let _, d = mk_dispatcher () in
  let flush = deferring d in
  let ran = ref false in
  let e = Dispatcher.declare d ~name:"Ev" ~owner:"M"
      (fun _ -> ()) in
  let h = must (Dispatcher.install e ~installer:"bg" ~spec:async (fun _ -> ran := true)) in
  Dispatcher.raise_event e ();
  Dispatcher.uninstall e h;
  ignore (flush ());
  check bool "uninstalled handler must not run" false !ran;
  check int "skip recorded" 1 (Dispatcher.stats e).Dispatcher.stale_skips

let test_dispatch_uninstall_during_raise () =
  (* A handler that evicts its whole domain mid-dispatch (what a hot
     swap's sweep does) must not corrupt the iteration: later
     handlers of the evicted domain are skipped, others still run. *)
  let _, d = mk_dispatcher () in
  let order = ref [] in
  let e = Dispatcher.declare d ~name:"Ev" ~owner:"M"
      (fun _ -> order := "primary" :: !order) in
  let violations = ref [] in
  Dispatcher.set_violation_hook d (Some (fun m -> violations := m :: !violations));
  ignore
    (must
       (Dispatcher.install e ~installer:"evictor" (fun _ ->
            order := "evictor" :: !order;
            ignore (Dispatcher.uninstall_installer d ~installer:"victim"))));
  ignore
    (must
       (Dispatcher.install e ~installer:"victim" (fun _ ->
            order := "victim" :: !order)));
  ignore
    (must
       (Dispatcher.install e ~installer:"bystander" (fun _ ->
            order := "bystander" :: !order)));
  Dispatcher.raise_event e ();
  check (list string) "victim skipped, bystander still runs"
    [ "primary"; "evictor"; "bystander" ] (List.rev !order);
  check (list string) "no invariant violations" [] !violations;
  let reports = ref [] in
  Dispatcher.audit d (fun m -> reports := m :: !reports);
  check (list string) "audit clean after mid-dispatch eviction" [] !reports

let test_dispatch_audit_clean_after_churn () =
  let _, d = mk_dispatcher () in
  let e = Dispatcher.declare d ~name:"Ev" ~owner:"M"
      ~index:(fun x -> x) (fun (_ : int) -> ()) in
  let hs =
    List.init 8 (fun i ->
      must
        (Dispatcher.install e ~installer:(Printf.sprintf "s%d" i)
           ~spec:(Dispatcher.Handler_spec.guarded (fun x -> x = i))
           (fun _ -> ()))) in
  List.iteri
    (fun i _ ->
      ignore
        (must
           (Dispatcher.install e ~installer:"idx"
              ~spec:(Dispatcher.Handler_spec.indexed i) (fun _ -> ()))))
    hs;
  List.iter (fun h -> Dispatcher.uninstall e h) hs;
  ignore (Dispatcher.uninstall_installer d ~installer:"idx");
  for i = 0 to 7 do Dispatcher.raise_event e i done;
  let reports = ref [] in
  Dispatcher.audit d (fun m -> reports := m :: !reports);
  check (list string) "audit clean after install/uninstall churn" [] !reports

let test_dispatch_async_spawn_hook () =
  let _, d = mk_dispatcher () in
  let spawned = ref 0 in
  Dispatcher.set_async_spawn d (fun thunk -> incr spawned; thunk ());
  let e = Dispatcher.declare d ~name:"Ev" ~owner:"M"
      (fun _ -> ()) in
  ignore (must (Dispatcher.install e ~installer:"bg" ~spec:async (fun _ -> ())));
  Dispatcher.raise_event e ();
  check int "spawned through hook" 1 !spawned

(* Regression: an asynchronous handler's fault escaped the dispatcher.
   Not counted, not evicted (so it faulted again on every raise), and
   it escaped the spawn hook, stranding the thunks queued after it. Its
   deferred body now runs through the same catch, count and evict path
   as a synchronous handler's. *)
let test_dispatch_async_fault_deferred () =
  let _, d = mk_dispatcher () in
  let flush = deferring d in
  let e = Dispatcher.declare d ~name:"Ev" ~owner:"M" (fun _ -> ()) in
  ignore (must (Dispatcher.install e ~installer:"bad" ~spec:async
                  (fun _ -> failwith "async bug")));
  let ran = ref 0 in
  ignore (must (Dispatcher.install e ~installer:"rec" ~spec:async
                  (fun _ -> incr ran)));
  Dispatcher.raise_event e ();
  Dispatcher.raise_event e ();
  (match flush () with
   | n -> check int "every thunk ran" 4 n
   | exception exn -> failf "escaped the flush: %s" (Printexc.to_string exn));
  check int "one failure" 1 (Dispatcher.stats e).Dispatcher.handler_failures;
  check int "evicted: the second thunk skips it" 1
    (Dispatcher.stats e).Dispatcher.stale_skips;
  check int "the failing handler is uninstalled" 2 (Dispatcher.handler_count e);
  check int "every recording thunk ran" 2 !ran

(* With no scheduler there is nowhere to run an asynchronous body: the
   raise says so rather than dropping or queueing it. *)
let test_dispatch_async_needs_scheduler () =
  let _, d = mk_dispatcher () in
  let e = Dispatcher.declare d ~name:"Ev" ~owner:"M" (fun _ -> ()) in
  ignore (must (Dispatcher.install e ~installer:"bg" ~spec:async (fun _ -> ())));
  match Dispatcher.raise_event e () with
  | () -> fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_dispatch_async_fault_on_strand () =
  let clock = clock () in
  let sim = Spin_machine.Sim.create clock in
  let d = Dispatcher.create clock in
  let sched = Spin_sched.Sched.create sim d in
  let e = Dispatcher.declare d ~name:"Ev" ~owner:"M" (fun _ -> ()) in
  ignore (must (Dispatcher.install e ~installer:"bad" ~spec:async
                  (fun _ -> failwith "async bug")));
  Dispatcher.raise_event e ();
  Spin_sched.Sched.run sched;
  let st = Spin_sched.Sched.stats sched in
  check int "the strand completed" 1 st.Spin_sched.Sched.completed;
  check int "the strand did not fail" 0 st.Spin_sched.Sched.failed;
  check int "one failure" 1 (Dispatcher.stats e).Dispatcher.handler_failures;
  check int "evicted" 1 (Dispatcher.handler_count e)

let test_dispatch_bounded_abort () =
  let c, d = mk_dispatcher () in
  let e = Dispatcher.declare d ~name:"Ev" ~owner:"M" (fun () -> "primary") in
  ignore
    (must
       (Dispatcher.install e ~installer:"slow"
          ~spec:{ Dispatcher.Handler_spec.default with bound_cycles = Some 100 }
          (fun () -> Clock.charge c 10_000; "slow")));
  (* The slow handler overruns its bound: aborted, result discarded,
     so the primary's result is the final one. *)
  check string "aborted handler's result dropped" "primary"
    (Dispatcher.raise_event e ());
  let s = Dispatcher.stats e in
  check int "abort recorded" 1 s.Dispatcher.aborted

let test_dispatch_bounded_within () =
  let c, d = mk_dispatcher () in
  let e = Dispatcher.declare d ~name:"Ev" ~owner:"M" (fun () -> "primary") in
  ignore
    (must
       (Dispatcher.install e ~installer:"quick"
          ~spec:{ Dispatcher.Handler_spec.default with bound_cycles = Some 1000 }
          (fun () -> Clock.charge c 10; "quick")));
  check string "bounded handler in budget" "quick" (Dispatcher.raise_event e ());
  check int "no abort" 0 (Dispatcher.stats e).Dispatcher.aborted

let test_dispatch_uninstall () =
  let _, d = mk_dispatcher () in
  let hits = ref 0 in
  let e = Dispatcher.declare d ~name:"Ev" ~owner:"M"
      (fun _ -> ()) in
  let h = must (Dispatcher.install e ~installer:"x" (fun _ -> incr hits)) in
  Dispatcher.raise_event e ();
  Dispatcher.uninstall e h;
  Dispatcher.raise_event e ();
  check int "no hits after uninstall" 1 !hits

let test_dispatch_indexed () =
  (* Section 5.5's future-work optimization: equality guards become a
     hash lookup. *)
  let c, d = mk_dispatcher () in
  let e = Dispatcher.declare d ~name:"Pkt.Demux" ~owner:"Filter"
      ~index:(fun proto -> proto)
      (fun _ -> ()) in
  let log = ref [] in
  for p = 0 to 49 do
    ignore
      (must
         (Dispatcher.install e ~installer:"svc"
            ~spec:(Dispatcher.Handler_spec.indexed p)
            (fun _ -> log := p :: !log)))
  done;
  Dispatcher.raise_event e 17;
  Dispatcher.raise_event e 3;
  check (list int) "exactly the keyed handlers ran" [ 17; 3 ] (List.rev !log);
  (* Cost: one index evaluation, not 50 guard evaluations. *)
  let spent = Clock.stamp c (fun () -> Dispatcher.raise_event e 17) in
  let costs = Clock.cost c in
  check bool "dispatch is O(1) in keys" true
    (spent < costs.Cost.dispatch_fixed
             + (3 * costs.Cost.guard_eval)
             + (2 * costs.Cost.handler_invoke)
             + costs.Cost.cross_module_call + 200)

let test_dispatch_fast_path_resumes_after_indexed_uninstall () =
  (* The fast-path guard must count *active* indexed handlers, not
     index buckets: buckets deliberately retain uninstalled handlers,
     so one indexed install must not disable the fast path forever. *)
  let _, d = mk_dispatcher () in
  let e = Dispatcher.declare d ~name:"Pkt.Demux" ~owner:"Filter"
      ~index:(fun proto -> proto)
      (fun _ -> ()) in
  Dispatcher.raise_event e 1;
  check int "fast before any indexed install" 1
    (Dispatcher.stats e).Dispatcher.fast_path;
  let h =
    must
      (Dispatcher.install e ~installer:"svc"
         ~spec:(Dispatcher.Handler_spec.indexed 7) (fun _ -> ())) in
  check int "one active indexed handler" 1 (Dispatcher.indexed_active e);
  Dispatcher.raise_event e 7;
  check int "slow while an indexed handler is live" 1
    (Dispatcher.stats e).Dispatcher.fast_path;
  Dispatcher.uninstall e h;
  check int "no active indexed handlers" 0 (Dispatcher.indexed_active e);
  Dispatcher.raise_event e 7;
  check int "fast path resumes after uninstall" 2
    (Dispatcher.stats e).Dispatcher.fast_path

let test_dispatch_indexed_requires_index () =
  let _, d = mk_dispatcher () in
  let e = Dispatcher.declare d ~name:"Plain" ~owner:"M" (fun () -> ()) in
  (match
     Dispatcher.install e ~installer:"x"
       ~spec:(Dispatcher.Handler_spec.indexed 1) (fun () -> ())
   with
   | Error Dispatcher.No_index -> ()
   | Ok _ | Error _ -> fail "index required")

let test_dispatch_topology () =
  let _, d = mk_dispatcher () in
  let e1 = Dispatcher.declare d ~name:"Ether.PktArrived" ~owner:"Ether"
      (fun _ -> ()) in
  let _e2 = Dispatcher.declare d ~name:"IP.PacketArrived" ~owner:"IP"
      (fun _ -> ()) in
  ignore (must (Dispatcher.install e1 ~installer:"IP" (fun _ -> ())));
  (match Dispatcher.topology d with
   | [ ("Ether.PktArrived", "Ether", handlers); ("IP.PacketArrived", "IP", _) ] ->
     check (list string) "handlers listed" [ "Ether"; "IP" ] handlers
   | _ -> fail "unexpected topology")

let test_dispatch_gate_without_hook_passes () =
  (* With no scheduler hook installed there is nothing to park a gated
     raise on: it passes through (and is not counted as a wait). *)
  let _, d = mk_dispatcher () in
  let e = Dispatcher.declare d ~name:"Svc.Op" ~owner:"Svc" (fun () -> 7) in
  Dispatcher.set_gate_by_name d ~names:[ "Svc.Op" ] true;
  check bool "gated" true (Dispatcher.is_gated e);
  check int "raise passes through" 7 (Dispatcher.raise_event e ());
  check int "no wait counted" 0 (Dispatcher.stats e).Dispatcher.gated_waits;
  Dispatcher.set_gate_by_name d ~names:[ "Svc.Op" ] false;
  check bool "reopened" false (Dispatcher.is_gated e)

let test_dispatch_gate_installers_and_hook () =
  (* gate_installer closes exactly the events an installer touches;
     a raise into a closed gate consults the hook before any handler,
     and proceeds once the gate reopens. *)
  let _, d = mk_dispatcher () in
  let hot = Dispatcher.declare d ~name:"Svc.Hot" ~owner:"Svc"
      ~combine:( + ) (fun (_ : int) -> 0) in
  let cold = Dispatcher.declare d ~name:"Svc.Cold" ~owner:"Svc"
      (fun (_ : int) -> ()) in
  ignore (must (Dispatcher.install hot ~installer:"ext" (fun _ -> 7)));
  let gated = Dispatcher.gate_installer d ~installer:"ext" in
  check (list string) "only the installer's event closed" [ "Svc.Hot" ] gated;
  check bool "other event untouched" false (Dispatcher.is_gated cold);
  let waits = ref 0 in
  Dispatcher.set_gate_wait d
    (Some (fun () ->
       incr waits;
       (* The swap's other half: reopen, then tell the raiser to
          re-check the gate. *)
       Dispatcher.set_gate_by_name d ~names:gated false;
       true));
  check int "held raise completes after the gate reopens" 7
    (Dispatcher.raise_event hot 1);
  check int "hook consulted once" 1 !waits;
  check int "wait counted" 1 (Dispatcher.stats hot).Dispatcher.gated_waits;
  check int "nothing in flight at rest" 0
    (Dispatcher.in_flight_by_name d ~names:[ "Svc.Hot"; "Svc.Cold" ])

let () =
  Alcotest.run "spin_core"
    [
      ( "univ",
        [
          test_case "roundtrip" `Quick test_univ_roundtrip;
          test_case "branding" `Quick test_univ_branding;
        ] );
      ( "capability",
        [
          test_case "lifecycle" `Quick test_capability_lifecycle;
          test_case "unique ids" `Quick test_capability_ids_unique;
          test_case "epoch revocation" `Quick test_capability_epoch_revocation;
        ] );
      ( "extern_ref",
        [
          test_case "roundtrip" `Quick test_extern_ref_roundtrip;
          test_case "forgery resists" `Quick test_extern_ref_forgery;
          test_case "per-app isolation" `Quick test_extern_ref_per_app_isolation;
          test_case "epoch retires indices" `Quick
            test_extern_ref_epoch_retires_indices;
        ] );
      ( "domains",
        [
          test_case "unsigned rejected" `Quick test_domain_rejects_unsigned;
          test_case "asserted-safe accepted" `Quick test_domain_accepts_asserted;
          test_case "resolve links and calls" `Quick test_domain_resolve_links_and_runs;
          test_case "type conflict is a link error" `Quick test_domain_type_conflict;
          test_case "resolve is atomic" `Quick test_domain_resolve_atomic;
          test_case "resolve is directional" `Quick test_domain_resolve_is_directional;
          test_case "combine aggregates" `Quick test_domain_combine;
          test_case "init runs once" `Quick test_domain_init_once;
        ] );
      ( "nameserver",
        [
          test_case "register and lookup" `Quick test_nameserver_lookup;
          test_case "authorization" `Quick test_nameserver_authorization;
          test_case "re-register replaces" `Quick test_nameserver_reregister;
        ] );
      ( "dispatcher",
        [
          test_case "fast path is a procedure call" `Quick test_dispatch_fast_path_is_a_call;
          test_case "last handler's result" `Quick test_dispatch_multiple_handlers_last_wins;
          test_case "guards route by instance" `Quick test_dispatch_guards;
          test_case "guard cost is linear" `Quick test_dispatch_guard_costs_linear;
          test_case "stacked guards conjoin" `Quick test_dispatch_stacked_guards_conjoin;
          test_case "primary authorizes installs" `Quick test_dispatch_auth_deny;
          test_case "primary imposes guards" `Quick test_dispatch_auth_imposed_guard;
          test_case "primary removal" `Quick test_dispatch_remove_primary;
          test_case "no handler" `Quick test_dispatch_no_handler;
          test_case "result combination" `Quick test_dispatch_combiner;
          test_case "raise_default keeps a nested No_handler" `Quick
            test_raise_default_keeps_nested_no_handler;
          test_case "async defers" `Quick test_dispatch_async_deferred;
          test_case "async skips uninstalled handler" `Quick
            test_dispatch_async_uninstall_before_flush;
          test_case "uninstall during raise is safe" `Quick
            test_dispatch_uninstall_during_raise;
          test_case "audit clean after churn" `Quick
            test_dispatch_audit_clean_after_churn;
          test_case "async spawn hook" `Quick test_dispatch_async_spawn_hook;
          test_case "async fault contained at flush" `Quick
            test_dispatch_async_fault_deferred;
          test_case "async without a scheduler raises" `Quick
            test_dispatch_async_needs_scheduler;
          test_case "async fault contained on a strand" `Quick
            test_dispatch_async_fault_on_strand;
          test_case "bounded handler aborts" `Quick test_dispatch_bounded_abort;
          test_case "bounded handler within budget" `Quick test_dispatch_bounded_within;
          test_case "uninstall" `Quick test_dispatch_uninstall;
          test_case "indexed dispatch (5.5 future work)" `Quick test_dispatch_indexed;
          test_case "indexed requires an index" `Quick
            test_dispatch_indexed_requires_index;
          test_case "fast path resumes after indexed uninstall" `Quick
            test_dispatch_fast_path_resumes_after_indexed_uninstall;
          test_case "topology introspection" `Quick test_dispatch_topology;
          test_case "gate without hook passes" `Quick
            test_dispatch_gate_without_hook_passes;
          test_case "gate installers and hook" `Quick
            test_dispatch_gate_installers_and_hook;
        ] );
    ]

(* Every name lib/ declares has a use, as the compiler resolved it. The
   scan reads the typed trees (.cmt/.cmti) of lib, bench (bench/e2e
   included), bin, examples and test, and keys each declaration by
   where it is declared, never by its name, so a local [capacity] is
   not a use of [Lru.capacity]. A declaration in an .ml and its copy
   in the .mli are one declaration. It has ten cases, one test each:
   1. a [val] in a lib/ .mli that no other module uses;
   2. a lib/ module that nothing under lib, bench or bin names: one
      only tests and examples reach is code the system never runs;
   3. a lib/ record field that no [r.f] or [{ f = p }] pattern reads
      (a field copied through [{ r with ... }] is not read, nor is one
      read only to compute its own next value, as in [r.f <- r.f + 1]);
   4. a lib/ variant or extension ([type t += C]) constructor that no
      expression builds;
   5. a lib/ optional argument that no call passes (an omitted one is
      the [None] the type checker fills in, at a ghost location);
   6. a top-level value in bench/ (bench/e2e aside, whose sources stay
      as the benchmark runs them) that no expression reads, in its own
      module or any other; a read inside the value's own definition (a
      recursive call) does not count;
   7. a named parameter of a lib/ function that its body never reads:
      a top-level or submodule binding's parameters, [_]-prefixed
      names included (the bare [_] is no name), and [ignore p] is no
      read;
   8. every [exempt] entry is still a finding, and every [test_only]
      entry a finding of the ninth;
   9. cases 1, 3, 4 and 5 again with uses from test/ left out (examples
      still count): a name only tests use must be listed in
      [test_only], as a paper mechanism waiting for its measured row or
      as an observer a test asserts on;
   10. a tuple argument of a case-4 constructor that every pattern
      binds to [_]. Exceptions are not declared, since [Printexc]
      reads their arguments where the scan cannot see.
   Uses from lib, bench, bin, examples and test all count for cases 1,
   3, 4, 5 and 10. Polymorphic [=], [compare] and [Hashtbl.hash] read
   fields the scan cannot see; such a field goes in [exempt] with that
   reason. *)

(* Table 7's thread packages: b_sizes.ml counts their source files, so
   they stay whole although nothing runs them. *)
let exempt_modules = [ "Cthreads"; "Osf_threads" ]

(* Findings kept on purpose, each with its reason. *)
let exempt =
  [ ( "Ebc.layout.l_name",
      "bench/e2e/kernel_ops.ml passes Ebc.layout ~name, and spinbench's \
       sources stay as the benchmark runs them" );
    ( "Univ.tag name",
      "bench/e2e/ext_churn.ml passes Univ.tag ~name, and spinbench's \
       sources stay as the benchmark runs them" );
    ( "Machine.t.name",
      "it stores Kernel.boot ~name and Host.create ~name, which bench/e2e \
       passes, and spinbench's sources stay as the benchmark runs them" ) ]

(* Why a name only tests use is kept. *)
type bin =
  | Mechanism (* a paper mechanism, waiting for the row that measures it *)
  | Observer (* a state or count a test asserts on to check other code *)

(* Names with no use outside test/, each group with its bin and the
   ROADMAP item, PAPER.md section or test that keeps it. *)
let test_only : (bin * string * string list) list =
  [ ( Mechanism,
      "ROADMAP item 9: the safety rows run a verified Loop and Jz \
       against its certificate's step bound, and an Ldc capability load",
      [ "Ebc.instr.Add"; "Ebc.instr.Jmp"; "Ebc.instr.Jz"; "Ebc.instr.Ldc";
        "Ebc.instr.Loop"; "Ebc.instr.Lt"; "Ebc.instr.Mov"; "Ebc.instr.Not";
        "Ebc.instr.Or"; "Ebc.instr.Sub"; "Ebc.cap_slot"; "Ebc.certificate";
        "Ebc.cert.c_steps"; "Ebc.verify ?caps" ] );
    ( Mechanism,
      "ROADMAP item 9: link-time safety refuses an Unsigned object file \
       and links an Asserted_safe driver (PAPER.md section 2)",
      [ "Object_file.safety.Asserted_safe"; "Object_file.safety.Unsigned" ] );
    ( Mechanism,
      "ROADMAP item 9: an authorizer denies an install or an import, and \
       a time-bounded handler's overrun is aborted and counted",
      [ "Dispatcher.decision.Deny"; "Dispatcher.declare ?auth";
        "Dispatcher.stats.aborted"; "Dispatcher.Handler_spec.default";
        "Kernel.publish ?authorize"; "Nameserver.lookup";
        "Nameserver.identity.who" ] );
    ( Mechanism,
      "ROADMAP item 9: a capability or externalized reference that a \
       swapped kernel extension minted is revoked by epoch",
      [ "Extern_ref.create"; "Extern_ref.epoch"; "Extern_ref.externalize";
        "Extern_ref.internalize"; "Extern_ref.live"; "Extern_ref.release";
        "Swap.externs_sym"; "Swap.externs_tag"; "Capability.epoch";
        "Capability.owner"; "Strand.capability"; "Strand.holds_capability";
        "Kernel.t.swap" ] );
    ( Mechanism,
      "ROADMAP item 8: the scheduler model property blocks and unblocks \
       other strands and changes priorities",
      [ "Sched.block"; "Sched.set_priority" ] );
    ( Mechanism,
      "ROADMAP item 12: fault fuzzing drives link loss from the fuzz seed",
      [ "Link.set_loss"; "Link.frames_dropped" ] );
    ( Mechanism,
      "ROADMAP item 4: Active Messages gets a measured row or goes",
      [ "Active_msg.proto"; "Active_msg.register"; "Active_msg.send";
        "Active_msg.stats"; "Active_msg.stats.dropped"; "Host.t.am" ] );
    ( Mechanism,
      "ROADMAP item 4: Table 3 runs the thread packages, whose join \
       reports the joined thread's failure",
      [ "Kthread.failure" ] );
    ( Mechanism,
      "PAPER.md section 1 item 6: Bartlett's collector, whose fields, \
       roots, ambiguous roots and per-extension accounting no bench row \
       uses (b_extra and b_ablation use unambiguous roots only)",
      [ "Kheap.add_ambiguous_root"; "Kheap.get_field"; "Kheap.set_field";
        "Kheap.read_root"; "Kheap.remove_root"; "Kheap.owner_words" ] );
    ( Mechanism,
      "PAPER.md section 1 item 4: the VirtAddr and Translation interfaces \
       (a region attached with no mapping, a context destroyed, a \
       virtual range freed)",
      [ "Translation.attach_region"; "Translation.destroy_context";
        "Virt_addr.deallocate" ] );
    ( Mechanism,
      "PAPER.md section 1 item 5: extensions stack on the video server's \
       SendPacket event",
      [ "Video.send_packet_event" ] );
    ( Observer,
      "test_core, test_faults, test_verifier, test_swap, test_net, \
       test_machine and test_dispatch_model check dispatch, eviction, \
       gating and verified installs by the dispatcher's handler lists, \
       counters and trace",
      [ "Dispatcher.handler_count"; "Dispatcher.indexed_active";
        "Dispatcher.installed_specs"; "Dispatcher.is_gated";
        "Dispatcher.tracer"; "Dispatcher.stats.guard_rejections";
        "Dispatcher.stats.handler_failures"; "Dispatcher.stats.stale_skips" ] );
    ( Observer,
      "test_sched, test_core, test_more, test_fuzz, test_integration and \
       test_properties check wakeups, steals, IPIs, failures, locks and \
       the run queues by the scheduler's counts and queues",
      [ "Sched.pending_wakeup_count"; "Sched.runnable_strands";
        "Sched.stealable_nth"; "Sched.stats.completed";
        "Sched.stats.dead_unblocks"; "Sched.stats.failed";
        "Sched.stats.ipi_dropped"; "Sched.stats.redundant_unblocks";
        "Coro.alive"; "Kthread.Condition.waiters" ] );
    ( Observer,
      "test_fuzz and test_engine check seeded replay and violation \
       reporting by the fuzzer's counts",
      [ "Sched_fuzz.stats.cpu_decisions"; "Sched_fuzz.stats.violations" ] );
    ( Observer,
      "test_trace, test_fuzz, test_engine and test_properties check what \
       the tracer recorded",
      [ "Trace.records"; "Trace.capacity" ] );
    ( Observer,
      "test_machine and test_fs check interrupt delivery, trap nesting, \
       the disk queue, the file system's disk writes and the event queue \
       by their counts",
      [ "Intr.delivered"; "Cpu.trap_stats.depth"; "Disk_dev.in_flight";
        "Disk_dev.reads"; "Disk_dev.writes"; "Sim.stats.live" ] );
    ( Observer,
      "test_machine, test_properties and test_vm check context \
       creation and destruction by the live context counts",
      [ "Mmu.contexts"; "Translation.contexts" ] );
    ( Observer,
      "test_net, test_machine and test_properties check TCP \
       and IP by connection states, counts, the header size and packet \
       contents",
      [ "Tcp.state"; "Tcp.state_to_string"; "Tcp.header_bytes";
        "Tcp.stats.resets"; "Tcp.stats.segments_received";
        "Ip.stats.forwarded"; "Pkt.to_string" ] );
    ( Observer,
      "test_fs, test_machine and test_properties check the caches and \
       the file system by reclaim counts, free space and the file list",
      [ "Cache_stats.t.reclaims"; "Simple_fs.free_blocks";
        "Simple_fs.list_files" ] );
    ( Observer,
      "test_dstruct and test_machine check LRU order and eviction by its \
       contents",
      [ "Lru.iter"; "Lru.mem" ] );
    ( Observer,
      "test_kgc checks collection, copying and pinning by object \
       liveness and pinned pages",
      [ "Kheap.is_live"; "Kheap.gc_stats.pages_pinned" ] );
    ( Observer,
      "test_swap checks the swap's revocation, gating and announcement \
       by its outcome",
      [ "Swap.outcome.sw_cap_epoch"; "Swap.outcome.sw_domain";
        "Swap.outcome.sw_extern_epoch"; "Swap.outcome.sw_gated_events" ] ) ]

let roots = [ "../lib"; "../bench"; "../bin"; "../examples"; "../test" ]

let rec typed_trees dir acc =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then typed_trees path acc
      else if Filename.check_suffix name ".cmt"
           || Filename.check_suffix name ".cmti" then path :: acc
      else acc)
    acc (Sys.readdir dir)

(* Each typed tree with its source file, relative to the workspace
   root (lib/net/tcp.ml). Dune's generated alias modules are skipped. *)
let units =
  lazy
    (List.concat_map (fun r -> typed_trees r []) roots
     |> List.filter_map (fun path ->
         let cmt = Cmt_format.read_cmt path in
         match cmt.cmt_sourcefile with
         | Some src when Filename.check_suffix src ".ml"
                         || Filename.check_suffix src ".mli" ->
           Some (src, cmt.cmt_modname, cmt.cmt_annots)
         | _ -> None))

let module_of src =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename src))

let under root src =
  String.length src > String.length root
  && String.sub src 0 (String.length root + 1) = root ^ "/"

let in_lib src = under "lib" src && not (List.mem (module_of src) exempt_modules)

let in_bench src = under "bench" src && not (under "bench/e2e" src)

let loc_key (l : Location.t) =
  (l.loc_start.pos_fname, l.loc_start.pos_cnum, l.loc_end.pos_cnum)

(* Declarations, from lib/ only: each maps a key to the name a finding
   reports, such as [Tcp.conn.engine]. The key is the declaration's
   location, or the name itself for options and modules. *)
let exports = Hashtbl.create 1024 (* .mli [val]s *)
let values = Hashtbl.create 4096 (* every top-level value, .ml and .mli *)
let fields = Hashtbl.create 1024
let constructors = Hashtbl.create 512
let args = Hashtbl.create 512 (* a constructor's tuple arguments, by index *)
let options = Hashtbl.create 256 (* [Mod.fn ?label] *)
let lib_modules = Hashtbl.create 128
let bench_values = Hashtbl.create 512 (* top-level, bench/*.ml *)
let unread_params = Hashtbl.create 16 (* [Mod.fn p], findings already *)

(* Uses, from every tree, by finding name: [true] once a use comes from
   outside test/. *)
let used = Hashtbl.create 4096
let read = Hashtbl.create 1024
let built = Hashtbl.create 512
let args_read = Hashtbl.create 512
let passed = Hashtbl.create 256
let named = Hashtbl.create 256 (* named from lib, bench or bin *)
let bench_read = Hashtbl.create 512

let option_name f l = f ^ " ?" ^ l

let rec optional_labels ty =
  match Types.get_desc ty with
  | Types.Tarrow (Optional l, _, ret, _) -> l :: optional_labels ret
  | Types.Tarrow (_, _, ret, _) -> optional_labels ret
  | _ -> []

let declare_value name ty locs =
  List.iter (fun l -> Hashtbl.replace values (loc_key l) name) locs;
  List.iter (fun l -> let o = option_name name l in Hashtbl.replace options o o)
    (optional_labels ty)

(* Whether [e] reads [id]; [ignore id] alone does not. *)
let reads id (e : Typedtree.expression) =
  let found = ref false in
  let open Tast_iterator in
  let expr sub (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (Pident x, _, _) when Ident.same x id -> found := true
    | Texp_apply ({ exp_desc = Texp_ident (f, _, _); _ },
                  [ (Nolabel, Some { exp_desc = Texp_ident (Pident _, _, _); _ }) ])
      when Path.name f = "Stdlib.ignore" -> ()
    | _ -> default_iterator.expr sub e in
  let it = { default_iterator with expr } in
  it.expr it e;
  !found

(* The parameters of function [fn] its body never reads. A curried
   [fun x -> fun y -> e] binds [x] over [fun y -> e]; compiler-made
   names such as [*opt*] are skipped. *)
let rec check_params fn (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
    List.iter (fun (c : Typedtree.value Typedtree.case) ->
        List.iter (fun (id, _, _) ->
            let p = Ident.name id in
            if p.[0] <> '*'
               && not (reads id c.c_rhs
                       || Option.fold ~none:false ~some:(reads id) c.c_guard)
            then (let f = fn ^ " " ^ p in Hashtbl.replace unread_params f f))
          (Typedtree.pat_bound_idents_full c.c_lhs);
        check_params fn c.c_rhs)
      cases
  | _ -> ()

let labels owner =
  List.iter (fun (ld : Typedtree.label_declaration) ->
      Hashtbl.replace fields (loc_key ld.ld_loc) (owner ^ ld.ld_name.txt))

(* A variant or extension constructor [name] declared at [loc], its
   tuple arguments keyed by their index. *)
let declare_constructor name loc (cargs : Typedtree.constructor_arguments) =
  Hashtbl.replace constructors (loc_key loc) name;
  match cargs with
  | Cstr_record lds -> labels (name ^ ".") lds
  | Cstr_tuple tys ->
    List.iteri (fun i _ ->
        Hashtbl.replace args (loc_key loc, i)
          (Printf.sprintf "%s arg %d" name (i + 1)))
      tys

let declare_type prefix (td : Typedtree.type_declaration) =
  let ty = prefix ^ td.typ_name.txt ^ "." in
  match td.typ_kind with
  | Ttype_record lds -> labels ty lds
  | Ttype_variant cds ->
    List.iter (fun (cd : Typedtree.constructor_declaration) ->
        declare_constructor (ty ^ cd.cd_name.txt) cd.cd_loc cd.cd_args)
      cds
  | Ttype_abstract | Ttype_open -> ()

(* [type t += C of ...]: named [Mod.C]. Exceptions are not declared:
   [Printexc] reads their arguments where the scan cannot see. *)
let declare_typext prefix (te : Typedtree.type_extension) =
  List.iter (fun (ec : Typedtree.extension_constructor) ->
      match ec.ext_kind with
      | Text_decl (_, cargs, _) ->
        declare_constructor (prefix ^ ec.ext_name.txt) ec.ext_loc cargs
      | Text_rebind _ -> ())
    te.tyext_constructors

let rec declare_structure prefix (str : Typedtree.structure) =
  List.iter (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter (fun (vb : Typedtree.value_binding) ->
            List.iter (fun (_, (name : string Location.loc), ty) ->
                declare_value (prefix ^ name.txt) ty
                  [ name.loc; vb.vb_pat.pat_loc ];
                check_params (prefix ^ name.txt) vb.vb_expr)
              (Typedtree.let_bound_idents_full [ vb ]))
          vbs
      | Tstr_type (_, tds) -> List.iter (declare_type prefix) tds
      | Tstr_typext te -> declare_typext prefix te
      | Tstr_module { mb_name = { txt = Some m; _ }; mb_expr; _ } ->
        declare_module_expr (prefix ^ m ^ ".") mb_expr
      | _ -> ())
    str.str_items

and declare_module_expr prefix (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_structure str -> declare_structure prefix str
  | Tmod_constraint (me, _, _, _) -> declare_module_expr prefix me
  | _ -> ()

let rec declare_signature prefix (sg : Typedtree.signature) =
  List.iter (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Tsig_value vd ->
        let name = prefix ^ vd.val_name.txt in
        Hashtbl.replace exports (loc_key vd.val_val.val_loc) name;
        declare_value name vd.val_val.val_type [ vd.val_val.val_loc ]
      | Tsig_type (_, tds) -> List.iter (declare_type prefix) tds
      | Tsig_typext te -> declare_typext prefix te
      | Tsig_module { md_name = { txt = Some m; _ };
                      md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
        declare_signature (prefix ^ m ^ ".") sg
      | _ -> ())
    sg.sig_items

(* A top-level binding's names, each keyed by its location. *)
let bound (vb : Typedtree.value_binding) =
  List.map (fun (_, (name : string Location.loc), _) ->
      (loc_key name.loc, name.txt))
    (Typedtree.let_bound_idents_full [ vb ])

let declare_bench src (str : Typedtree.structure) =
  List.iter (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter (fun vb ->
            List.iter (fun (k, n) ->
                Hashtbl.replace bench_values k (module_of src ^ "." ^ n))
              (bound vb))
          vbs
      | _ -> ())
    str.str_items

(* The library prefixes dune gives lib/ modules ([Spin_net] for
   [Spin_net__Tcp]). *)
let lib_prefixes = Hashtbl.create 16

(* [Spin_net__Tcp] is [Some ("Spin_net", "Tcp")]. *)
let wrapped name =
  let n = String.length name in
  let rec find i =
    if i + 1 >= n then None
    else if name.[i] = '_' && name.[i + 1] = '_' then
      Some (String.sub name 0 i, String.sub name (i + 2) (n - i - 2))
    else find (i + 1) in
  find 0

(* The lib/ module a resolved path names, if any: [Spin_net__Tcp.x],
   [Spin_net.Tcp.x] or, inside the library, [Tcp.x]. *)
let module_of_path p =
  let lib m = if Hashtbl.mem lib_modules m then Some m else None in
  match Path.flatten p with
  | `Ok (id, rest) when Ident.global id -> (
      let head = Ident.name id in
      match wrapped head, rest with
      | Some (_, m), _ -> lib m
      | None, m :: _ when Hashtbl.mem lib_prefixes head -> lib m
      | None, _ -> lib head)
  | _ -> None

let module_of_loc (l : Location.t) =
  let f = l.loc_start.pos_fname in
  if under "lib" f then Some (module_of f) else None

(* An omitted optional argument: the type checker's ghost [None]. *)
let omitted (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_construct (_, { cstr_name = "None"; _ }, []) -> e.exp_loc.loc_ghost
  | _ -> false

let scan src annots =
  let own = module_of src in
  let outside = not (under "test" src) in
  let names_modules =
    under "lib" src || under "bench" src || under "bin" src in
  let name m =
    match m with
    | Some m when names_modules && m <> own -> Hashtbl.replace named m ()
    | _ -> () in
  let note tbl n =
    if outside || not (Hashtbl.mem tbl n) then Hashtbl.replace tbl n outside in
  let mark tbl decls l =
    match Hashtbl.find_opt decls (loc_key l) with
    | Some n -> note tbl n
    | None -> () in
  (* The fields being assigned around the expression being walked: a
     field read only to compute its own next value is still unread. *)
  let assigning = ref [] in
  (* The top-level binding being walked: its own recursive calls are
     not reads. *)
  let defining = ref [] in
  let open Tast_iterator in
  let expr sub (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_setfield (r, _, lbl, v) ->
      name (module_of_loc lbl.lbl_loc);
      sub.expr sub r;
      let outer = !assigning in
      assigning := loc_key lbl.lbl_loc :: outer;
      sub.expr sub v;
      assigning := outer
    | desc ->
      (match desc with
       | Texp_ident (p, _, vd) ->
         mark used exports vd.val_loc;
         if not (List.mem (loc_key vd.val_loc) !defining) then
           mark bench_read bench_values vd.val_loc;
         name (module_of_path p);
         name (module_of_loc vd.val_loc)
       | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) -> (
           match Hashtbl.find_opt values (loc_key vd.val_loc) with
           | Some f ->
             List.iter (function
                 | Asttypes.Optional l, Some a when not (omitted a) ->
                   note passed (option_name f l)
                 | _ -> ())
               args
           | None -> ())
       | Texp_field (_, _, lbl) ->
         if not (List.mem (loc_key lbl.lbl_loc) !assigning) then
           mark read fields lbl.lbl_loc;
         name (module_of_loc lbl.lbl_loc)
       | Texp_construct (_, cd, _) ->
         mark built constructors cd.cstr_loc;
         name (module_of_loc cd.cstr_loc)
       | Texp_record { fields = fs; _ } ->
         Array.iter (fun ((lbl : Types.label_description), _) ->
             name (module_of_loc lbl.lbl_loc))
           fs
       | _ -> ());
      default_iterator.expr sub e in
  let pat : type k. iterator -> k Typedtree.general_pattern -> unit =
    fun sub p ->
    (match p.pat_desc with
     | Tpat_record (fs, _) ->
       List.iter (fun (_, (lbl : Types.label_description), q) ->
           name (module_of_loc lbl.lbl_loc);
           match (q : _ Typedtree.general_pattern).pat_desc with
           | Tpat_any -> ()
           | _ -> mark read fields lbl.lbl_loc)
         fs
     | Tpat_construct (_, cd, ps, _) ->
       name (module_of_loc cd.cstr_loc);
       (* [C (_, x)] reads the second argument, not the first. *)
       List.iteri (fun i (q : Typedtree.pattern) ->
           match q.pat_desc with
           | Tpat_any -> ()
           | _ ->
             Option.iter (note args_read)
               (Hashtbl.find_opt args (loc_key cd.cstr_loc, i)))
         ps
     | _ -> ());
    default_iterator.pat sub p in
  let typ sub (t : Typedtree.core_type) =
    (match t.ctyp_desc with
     | Ttyp_constr (p, _, _) -> name (module_of_path p)
     | _ -> ());
    default_iterator.typ sub t in
  let module_expr sub (me : Typedtree.module_expr) =
    (match me.mod_desc with
     | Tmod_ident (p, _) -> name (module_of_path p)
     | _ -> ());
    default_iterator.module_expr sub me in
  let module_type sub (mt : Typedtree.module_type) =
    (match mt.mty_desc with
     | Tmty_ident (p, _) | Tmty_alias (p, _) -> name (module_of_path p)
     | _ -> ());
    default_iterator.module_type sub mt in
  let it = { default_iterator with expr; pat; typ; module_expr; module_type } in
  match (annots : Cmt_format.binary_annots) with
  | Implementation str ->
    List.iter (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter (fun vb ->
              defining := List.map fst (bound vb);
              it.value_binding it vb)
            vbs;
          defining := []
        | _ -> it.structure_item it item)
      str.str_items
  | Interface sg -> it.signature it sg
  | _ -> ()

let scanned =
  lazy
    (let units = Lazy.force units in
     List.iter (fun (src, modname, annots) ->
         if in_lib src then begin
           Hashtbl.replace lib_modules (module_of src) (module_of src);
           Option.iter (fun (lib, _) -> Hashtbl.replace lib_prefixes lib ())
             (wrapped modname);
           match (annots : Cmt_format.binary_annots) with
           | Implementation str -> declare_structure (module_of src ^ ".") str
           | Interface sg -> declare_signature (module_of src ^ ".") sg
           | _ -> ()
         end
         else if in_bench src then
           match (annots : Cmt_format.binary_annots) with
           | Implementation str -> declare_bench src str
           | _ -> ())
       units;
     List.iter (fun (src, _, annots) -> scan src annots) units)

(* The declared names with no use. *)
let unused decls used =
  Lazy.force scanned;
  Seq.filter (fun n -> not (used n)) (decls ())
  |> List.of_seq |> List.sort_uniq compare

let report what decls used ~kept =
  match List.filter (fun f -> not (kept f)) (unused decls used) with
  | [] -> ()
  | dead ->
    Alcotest.failf "%d %s:\n  %s" (List.length dead) what
      (String.concat "\n  " dead)

let names tbl () = Hashtbl.to_seq_values tbl

let exempted f = List.mem_assoc f exempt

let test_only_names = List.concat_map (fun (_, _, fs) -> fs) test_only

let cases =
  [ ("every lib/ export has a caller",
     "exported values have no use outside their module", names exports,
     Hashtbl.mem used);
    ("every lib/ module has a caller",
     "lib/ modules are named from no other module under lib, bench or bin",
     names lib_modules, Hashtbl.mem named);
    ("every lib/ field is read", "record fields are read nowhere",
     names fields, Hashtbl.mem read);
    ("every lib/ constructor is built",
     "variant constructors are built nowhere", names constructors,
     Hashtbl.mem built);
    ("every lib/ option is passed",
     "optional arguments are passed by no call", names options,
     Hashtbl.mem passed);
    ("every bench/ top-level value is read",
     "bench/ top-level values are read nowhere", names bench_values,
     Hashtbl.mem bench_read);
    (* Its findings are made during the scan: nothing "uses" one. *)
    ("every lib/ function reads its parameters",
     "function parameters are never read", names unread_params,
     fun _ -> false);
    ("every lib/ constructor argument is read",
     "constructor arguments are bound to _ by every pattern", names args,
     Hashtbl.mem args_read) ]

(* The first four cases' names, with only uses from outside test/. *)
let outside_test =
  ( "every lib/ name has a use outside test/",
    "exports, fields, constructors and options are used only from test/ \
     and are not in test_only",
    (fun () ->
       List.to_seq
         [ names exports; names fields; names constructors; names options ]
       |> Seq.flat_map (fun decls -> decls ())),
    fun n ->
      List.exists (fun t -> Hashtbl.find_opt t n = Some true)
        [ used; read; built; passed ] )

let findings cases =
  List.concat_map (fun (_, _, decls, used) -> unused decls used) cases

(* An exempt or test_only entry must still be a finding, or it goes. *)
let test_exempt_current () =
  let all = findings (outside_test :: cases) in
  let outside = findings [ outside_test ] in
  match
    List.filter (fun f -> not (List.mem f all)) (List.map fst exempt)
    @ List.filter (fun f -> not (List.mem f outside)) test_only_names
  with
  | [] -> ()
  | stale ->
    Alcotest.failf "exempt or test_only entries that are no longer \
                    findings:\n  %s" (String.concat "\n  " stale)

let () =
  let case ?(kept = exempted) (name, what, decls, used) =
    Alcotest.test_case name `Quick (fun () -> report what decls used ~kept) in
  Alcotest.run "spin_exports"
    [ ( "interfaces",
        List.map case cases
        @ [ Alcotest.test_case "every exempt entry is a finding" `Quick
              test_exempt_current;
            case outside_test ~kept:(fun f ->
                exempted f || List.mem f test_only_names) ] ) ]

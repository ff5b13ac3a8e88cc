(* Property-based tests over the system's cross-module invariants:
   TCP delivers exactly what was sent; the file system agrees with a
   map model under random operation sequences; the dispatcher invokes
   exactly the guard-passing handlers; virtual regions never overlap. *)

open Spin_net
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Nic = Spin_machine.Nic
module Link = Spin_machine.Link
module Machine = Spin_machine.Machine
module Sched = Spin_sched.Sched
module Dispatcher = Spin_core.Dispatcher
module Virt_addr = Spin_vm.Virt_addr
module Simple_fs = Spin_fs.Simple_fs
module Phys_addr = Spin_vm.Phys_addr
module Capability = Spin_core.Capability

let must r = Dispatcher.ok_exn ~site:"test_properties" r

let addr_a = Ip.addr_of_quad 10 0 0 1
let addr_b = Ip.addr_of_quad 10 0 0 2

(* ------------------------------------------------------------------ *)
(* TCP: a random series of sends arrives intact, in order             *)
(* ------------------------------------------------------------------ *)

let prop_tcp_stream_integrity =
  QCheck2.Test.make ~name:"tcp delivers the exact byte stream" ~count:15
    QCheck2.Gen.(list_size (int_range 1 8) (string_size (int_range 1 3000)))
    (fun chunks ->
      let clock = Clock.create Cost.alpha_133 in
      let sim = Sim.create clock in
      let a = Host.create sim ~name:"a" ~addr:addr_a in
      let b = Host.create sim ~name:"b" ~addr:addr_b in
      ignore (Host.wire a b ~kind:Nic.Lance);
      let received = Buffer.create 1024 in
      Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun conn ->
        Tcp.on_receive conn (fun data -> Buffer.add_bytes received data));
      let sent_ok = ref false in
      ignore (Sched.spawn a.Host.sched ~name:"send" (fun () ->
        match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
        | None -> ()
        | Some conn ->
          List.iter
            (fun chunk -> Tcp.send a.Host.tcp conn (Bytes.of_string chunk))
            chunks;
          sent_ok := true));
      Host.run_all [ a; b ];
      !sent_ok
      && Buffer.contents received = String.concat "" chunks)

(* ------------------------------------------------------------------ *)
(* TCP: send-buffer chunks stay isolated under retransmit             *)
(* ------------------------------------------------------------------ *)

(* Segments go on the wire as views of the send buffer, with their
   headers pushed in front of each chunk. A lossy wire makes Go-Back-N
   re-encode whole windows, after later chunks have pushed theirs:
   were the chunks not each behind a private gap, those headers would
   land on an earlier chunk's payload and its retransmission would
   carry them. *)

let mss = 1024                            (* Tcp's *)

let transfer_size_gen =
  QCheck2.Gen.(
    oneof
      [ oneofl [ 0; 1; mss - 1; mss; mss + 1; (6 * mss) + 7 ];
        map2 (fun k d -> max 0 ((k * mss) + d)) (int_range 0 6)
          (int_range (-1) 7) ])

let lossy_pair ~every =
  let sim = Sim.create (Clock.create Cost.alpha_133) in
  let a = Host.create sim ~name:"a" ~addr:addr_a in
  let b = Host.create sim ~name:"b" ~addr:addr_b in
  (* Machine.connect hides its link: move the NICs to a lossy one. *)
  let nic_a, nic_b =
    Machine.connect a.Host.machine b.Host.machine ~kind:Nic.T3 () in
  let link = Link.create sim ~mbps:(Nic.link_mbps Nic.T3) () in
  let plug h nic ep ~peer =
    Nic.attach nic link ep;
    let nif =
      Netif.create h.Host.machine h.Host.sched h.Host.dispatcher nic
        ~name:"T3" in
    Ip.add_interface h.Host.ip nif ~addr:h.Host.addr;
    Ip.add_route h.Host.ip ~dst:peer nif;
    Netif.start nif in
  plug a nic_a Link.A ~peer:addr_b;
  plug b nic_b Link.B ~peer:addr_a;
  Link.set_loss link ~every;
  (a, b)

let prop_tcp_chunks_isolated_under_retransmit =
  QCheck2.Test.make ~name:"send-buffer chunks stay isolated under retransmit"
    ~count:60
    ~print:QCheck2.Print.(pair (list int) int)
    QCheck2.Gen.(
      pair (list_size (int_range 1 3) transfer_size_gen) (oneofl [ 0; 3; 5 ]))
    (fun (sizes, every) ->
      let a, b = lossy_pair ~every in
      let received = Buffer.create 4096 in
      Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun conn ->
        Tcp.on_receive conn (Buffer.add_bytes received));
      (* Every byte differs from its neighbours in other chunks. *)
      let transfers =
        List.mapi
          (fun j n ->
            Bytes.init n (fun i -> Char.chr (((i * 7) + j + (i / mss)) land 255)))
          sizes in
      let sent_ok = ref false in
      ignore (Sched.spawn a.Host.sched ~name:"send" (fun () ->
        match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
        | None -> ()
        | Some conn ->
          List.iter (Tcp.send a.Host.tcp conn) transfers;
          sent_ok := true));
      Host.run_all [ a; b ];
      !sent_ok
      && Buffer.contents received
         = String.concat "" (List.map Bytes.to_string transfers))

(* ------------------------------------------------------------------ *)
(* Simple_fs agrees with a map model                                  *)
(* ------------------------------------------------------------------ *)

type fs_op =
  | Op_write of int * string
  | Op_read of int

(* File sizes on both sides of [File_cache]'s 64 KB bypass: most are
   small, some past 64 KB up to the file system's 71,680-byte limit. *)
let fs_contents_gen =
  QCheck2.Gen.(
    frequency [
      (4, string_size (int_range 0 600));
      (1, map2 (fun n seed ->
             String.init n (fun i -> Char.chr ((i * 7 + seed) land 0xff)))
            (int_range ((64 * 1024) + 1) 71_680) (int_range 0 255));
    ])

let fs_op_gen =
  QCheck2.Gen.(
    oneof [
      map2 (fun k s -> Op_write (k, s)) (int_range 0 5) fs_contents_gen;
      map (fun k -> Op_read k) (int_range 0 5);
    ])

(* Data blocks a file of [n] bytes holds: its blocks, plus the
   indirect block past the 12 direct ones. *)
let fs_blocks n =
  let bs = Spin_machine.Disk_dev.block_size in
  let blocks = (n + bs - 1) / bs in
  blocks + (if blocks > 12 then 1 else 0)

let prop_fs_matches_model =
  QCheck2.Test.make ~name:"file system agrees with a map model" ~count:25
    QCheck2.Gen.(list_size (int_range 1 25) fs_op_gen)
    (fun ops ->
      let m = Machine.create ~name:"p" ~mem_mb:4 () in
      let d = Dispatcher.create m.Machine.clock in
      let sched = Sched.create m.Machine.sim d in
      let phys = Spin_vm.Phys_addr.create m d in
      let disk = Machine.add_disk ~blocks:8192 m in
      let cache = Spin_fs.Block_cache.create ~phys m sched disk in
      let good = ref true in
      ignore (Sched.spawn sched ~name:"fs" (fun () ->
        let fs = Simple_fs.format cache ~blocks:8192 () in
        let free0 = Simple_fs.free_blocks fs in
        let model : (string, string) Hashtbl.t = Hashtbl.create 8 in
        (* Twenty fillers first: the files under test live in the
           directory's second block, and lookups scan both in place. *)
        for i = 1 to 20 do
          let name = Printf.sprintf "pad%02d" i in
          Simple_fs.create fs ~name;
          Hashtbl.replace model name ""
        done;
        let name k = Printf.sprintf "f%d" k in
        (* [free_blocks] is the formatted space less the directory's
           blocks (one 32-byte entry per file) and every file's. *)
        let free_agrees () =
          let used =
            Hashtbl.fold (fun _ s acc -> acc + fs_blocks (String.length s))
              model (fs_blocks (32 * Hashtbl.length model)) in
          Simple_fs.free_blocks fs = free0 - used in
        (* [exists] and [size] agree with the model. *)
        let agrees name =
          match Hashtbl.find_opt model name with
          | Some contents ->
            Simple_fs.exists fs ~name
            && Simple_fs.size fs ~name = String.length contents
          | None -> not (Simple_fs.exists fs ~name) in
        let ensure k =
          if not (Hashtbl.mem model (name k)) then begin
            Simple_fs.create fs ~name:(name k);
            Hashtbl.replace model (name k) ""
          end in
        List.iter
          (fun op ->
            (match op with
            | Op_write (k, s) ->
              ensure k;
              Simple_fs.write fs ~name:(name k) (Bytes.of_string s);
              Hashtbl.replace model (name k) s
            | Op_read k ->
              let fs_view =
                if Simple_fs.exists fs ~name:(name k) then
                  Some (Bytes.to_string (Simple_fs.read fs ~name:(name k)))
                else None in
              if fs_view <> Hashtbl.find_opt model (name k) then good := false);
            let (Op_write (k, _) | Op_read k) = op in
            if not (agrees (name k) && free_agrees ()) then good := false)
          ops;
        (* Final audit: every model file matches, every name the ops
           used agrees, listing agrees. *)
        Hashtbl.iter
          (fun name contents ->
            if Bytes.to_string (Simple_fs.read fs ~name) <> contents then
              good := false)
          model;
        for k = 0 to 5 do if not (agrees (name k)) then good := false done;
        if List.sort compare (Simple_fs.list_files fs)
           <> List.sort compare
                (Hashtbl.fold (fun k _ acc -> k :: acc) model [])
        then good := false;
        (* The servers' read path: a fresh file cache serves every file
           as the model has it, twice (a miss, then a hit below 64 KB
           or a second bypass above), and no file that was never
           created. *)
        let fc = Spin_fs.File_cache.create ~phys fs in
        let large = ref 0 in
        for _ = 1 to 2 do
          Hashtbl.iter
            (fun name contents ->
              if String.length contents > 64 * 1024 then incr large;
              if Option.map Bytes.to_string
                   (Spin_fs.File_cache.fetch fc ~name) <> Some contents
              then good := false)
            model
        done;
        if Spin_fs.File_cache.fetch fc ~name:"never" <> None then good := false;
        if Spin_fs.File_cache.large_bypasses fc <> !large then good := false));
      Sched.run sched;
      !good)

(* ------------------------------------------------------------------ *)
(* Dispatcher: exactly the guard-passing handlers run                 *)
(* ------------------------------------------------------------------ *)

let prop_dispatcher_guard_semantics =
  (* Each handler i has a modulus guard; raising v must invoke exactly
     those with v mod m = r. *)
  QCheck2.Test.make ~name:"dispatcher invokes exactly guard-passing handlers"
    ~count:100
    QCheck2.Gen.(pair
                   (list_size (int_range 0 12)
                      (pair (int_range 1 5) (int_range 0 4)))
                   (int_range 0 30))
    (fun (handler_specs, v) ->
      let clock = Clock.create Cost.alpha_133 in
      let d = Dispatcher.create clock in
      let e = Dispatcher.declare d ~name:"P.E" ~owner:"P"
          (fun (_ : int) -> ()) in
      let fired = ref [] in
      List.iteri
        (fun i (m, r) ->
          ignore (must @@ Dispatcher.install e ~installer:"p"
                    ~spec:(Dispatcher.Handler_spec.guarded (fun x ->
                             x mod m = r mod m))
                    (fun _ -> fired := i :: !fired)))
        handler_specs;
      Dispatcher.raise_event e v;
      let expected =
        List.filteri (fun _ _ -> true) handler_specs
        |> List.mapi (fun i (m, r) -> (i, v mod m = r mod m))
        |> List.filter_map (fun (i, p) -> if p then Some i else None) in
      List.sort compare !fired = List.sort compare expected)

let prop_dispatcher_uninstall_complete =
  QCheck2.Test.make ~name:"uninstalled handlers never fire" ~count:100
    QCheck2.Gen.(list_size (int_range 1 10) bool)
    (fun keep_mask ->
      let clock = Clock.create Cost.alpha_133 in
      let d = Dispatcher.create clock in
      let e = Dispatcher.declare d ~name:"P.U" ~owner:"P"
          (fun () -> ()) in
      let fired = ref [] in
      let handlers =
        List.mapi
          (fun i _ ->
            must @@ Dispatcher.install e ~installer:"p"
              (fun () -> fired := i :: !fired))
          keep_mask in
      List.iteri
        (fun i h -> if not (List.nth keep_mask i) then Dispatcher.uninstall e h)
        handlers;
      Dispatcher.raise_event e ();
      let expected =
        List.mapi (fun i keep -> (i, keep)) keep_mask
        |> List.filter_map (fun (i, keep) -> if keep then Some i else None) in
      List.sort compare !fired = expected)

(* ------------------------------------------------------------------ *)
(* Virtual regions never overlap within an address space              *)
(* ------------------------------------------------------------------ *)

let prop_virt_regions_disjoint =
  QCheck2.Test.make ~name:"virtual allocations are pairwise disjoint" ~count:100
    QCheck2.Gen.(list_size (int_range 1 20)
                   (pair (int_range 1 40_000) bool))
    (fun requests ->
      let m = Machine.create ~name:"p" ~mem_mb:4 () in
      let d = Dispatcher.create m.Machine.clock in
      ignore d;
      let va = Virt_addr.create m in
      let live = ref [] in
      List.iter
        (fun (bytes, free_one) ->
          let cap = Virt_addr.allocate va ~asid:1 ~bytes in
          live := cap :: !live;
          if free_one then
            match !live with
            | c :: rest when List.length rest > 0 ->
              Virt_addr.deallocate va c;
              live := rest
            | _ -> ())
        requests;
      let regions = List.map Virt_addr.region !live in
      let disjoint a b =
        a.Virt_addr.va + a.Virt_addr.bytes <= b.Virt_addr.va
        || b.Virt_addr.va + b.Virt_addr.bytes <= a.Virt_addr.va in
      let rec pairwise = function
        | [] -> true
        | r :: rest -> List.for_all (disjoint r) rest && pairwise rest in
      pairwise regions
      && List.for_all
           (fun r -> r.Virt_addr.va land (Spin_machine.Addr.page_size - 1) = 0)
           regions)

(* ------------------------------------------------------------------ *)
(* Pkt: header push/pull is an identity                               *)
(* ------------------------------------------------------------------ *)

(* A header push: reserve it in the headroom and write it in place. *)
let push p h =
  let n = String.length h in
  let off = Pkt.reserve p n in
  Bytes.blit_string h 0 (Pkt.buffer p) off n

(* The first [n] bytes, without consuming them. *)
let peek p n = Pkt.to_string (Pkt.sub p ~pos:0 ~len:n)

let prop_pkt_push_pull_identity =
  QCheck2.Test.make ~name:"packet header push/pull roundtrips" ~count:200
    QCheck2.Gen.(pair (list_size (int_range 0 5) (string_size (int_range 1 32)))
                   (string_size (int_range 0 256)))
    (fun (headers, payload) ->
      let p = Pkt.of_payload (Bytes.of_string payload) in
      List.iter (push p) headers;
      let pulled =
        List.rev_map
          (fun h ->
            let n = String.length h in
            let head = peek p n in
            Pkt.drop p n;
            head)
          (List.rev headers) in
      pulled = headers && Pkt.to_string p = payload)

(* Receive-path shape: a packet whose view sits at a random offset in
   its backing buffer (consumed headers in headroom) still roundtrips
   header pushes and pulls exactly, and the payload never moves. *)
let prop_pkt_roundtrip_at_random_offset =
  QCheck2.Test.make ~name:"packet push/pull roundtrips at random offsets"
    ~count:200
    QCheck2.Gen.(triple (string_size (int_range 0 64))
                   (string_size (int_range 0 256))
                   (list_size (int_range 0 4) (string_size (int_range 1 24))))
    (fun (consumed, payload, headers) ->
      let p = Pkt.of_frame (Bytes.of_string (consumed ^ payload)) in
      Pkt.drop p (String.length consumed);
      List.iter (push p) headers;
      let pulled =
        List.rev_map
          (fun h ->
            let n = String.length h in
            let head = peek p n in
            Pkt.drop p n;
            head)
          (List.rev headers) in
      pulled = headers && Pkt.to_string p = payload)

(* Sub-views alias the backing buffer; [contents] isolates. *)
let prop_pkt_view_aliases_copy_isolates =
  QCheck2.Test.make ~name:"packet views alias, copies do not" ~count:200
    QCheck2.Gen.(string_size (int_range 1 128))
    (fun s ->
      let p = Pkt.of_payload (Bytes.of_string s) in
      let n = Pkt.length p in
      let pos = (n - 1) / 2 in
      let len = n - pos in
      let v = Pkt.sub p ~pos ~len in
      let c = Pkt.contents v in
      let before = Pkt.get_u8 v 0 in
      Pkt.set_u8 v 0 ((before + 1) land 0xff);
      Pkt.get_u8 p pos = ((before + 1) land 0xff)   (* write seen via p *)
      && Bytes.get_uint8 c 0 = before               (* copy untouched *)
      && Bytes.length c = len)

(* Pushing past the reserved headroom must not fail — it falls back to
   one realloc and the packet still reads back exactly. *)
let prop_pkt_headroom_exhaustion_reallocs =
  QCheck2.Test.make ~name:"packet headroom exhaustion falls back to realloc"
    ~count:200
    QCheck2.Gen.(triple (int_range 0 8) (string_size (int_range 0 64))
                   (list_size (int_range 1 6) (string_size (int_range 1 40))))
    (fun (headroom, payload, headers) ->
      let p = Pkt.of_payload (Bytes.of_string payload) in
      (* A filler push leaves [headroom] bytes before the headers. *)
      let filler = String.make (Pkt.default_headroom - headroom) '.' in
      push p filler;
      List.iter (push p) headers;
      let expect =
        String.concat "" (List.rev headers @ [ filler; payload ]) in
      Pkt.length p = String.length expect && Pkt.to_string p = expect)

(* ------------------------------------------------------------------ *)
(* IP addresses roundtrip                                             *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Run-queue structures: the scheduler's FIFO-within-priority         *)
(* contract rests on these                                            *)
(* ------------------------------------------------------------------ *)

module Dllist = Spin_dstruct.Dllist
module Pqueue = Spin_dstruct.Pqueue

(* Dllist against a functional deque model: any interleaving of
   pushes, pops and mid-list removals leaves the same sequence. *)
let prop_dllist_matches_model =
  let open QCheck2.Gen in
  let op_gen =
    frequency
      [ (3, map (fun v -> `Push_back v) (int_range 0 99));
        (2, pure `Pop_front);
        (2, map (fun i -> `Remove i) (int_range 0 30)) ] in
  QCheck2.Test.make ~name:"dllist agrees with a deque model" ~count:200
    (list_size (int_range 1 60) op_gen)
    (fun ops ->
      let dl = Dllist.create () in
      (* The model holds the node handles in deque order, so removal
         targets a specific node even when values repeat. *)
      let model = ref [] in
      List.iter
        (fun op ->
          match op with
          | `Push_back v -> model := !model @ [ Dllist.push_back dl v ]
          | `Pop_front ->
            (match Dllist.pop_front dl, !model with
             | Some n, m :: rest when n == m -> model := rest
             | None, [] -> ()
             | _ -> failwith "pop_front diverged")
          | `Remove i ->
            if !model <> [] then begin
              let n = List.nth !model (i mod List.length !model) in
              Dllist.remove dl n;
              model := List.filter (fun m -> m != n) !model
            end)
        ops;
      Dllist.to_list dl = List.map Dllist.value !model
      && Dllist.length dl = List.length !model)

(* Pqueue pops in key order no matter how adds and handle-removals
   interleave. *)
let prop_pqueue_pops_sorted =
  let open QCheck2.Gen in
  QCheck2.Test.make ~name:"pqueue pops nondecreasing under removals" ~count:200
    (pair (list_size (int_range 1 40) (int_range 0 9))
       (list_size (int_range 0 10) (int_range 0 30)))
    (fun (adds, removes) ->
      let q = Pqueue.create ~dummy:0 in
      let entries =
        List.map (fun v -> let h = Pqueue.handle q in Pqueue.arm q h v v; h)
          adds in
      List.iter
        (fun i ->
          let live = List.filter Pqueue.mem entries in
          if live <> [] then
            ignore (Pqueue.remove q (List.nth live (i mod List.length live))))
        removes;
      let live = List.length (List.filter Pqueue.mem entries) in
      let rec drain acc =
        if Pqueue.is_empty q then List.rev acc else drain (Pqueue.pop q :: acc) in
      let popped = drain [] in
      popped = List.sort compare popped && List.length popped = live)

(* The scheduler's candidate list — what the fuzz selector chooses
   from — is priority-descending and FIFO within each level, for any
   spawn order. *)
let prop_runnable_strands_ordered =
  let open QCheck2.Gen in
  QCheck2.Test.make ~name:"runnable set is priority-desc, FIFO within level"
    ~count:100
    (list_size (int_range 1 20) (int_range 0 Spin_sched.Strand.max_priority))
    (fun priorities ->
      let m = Machine.create ~name:"prop" ~mem_mb:4 () in
      let d = Dispatcher.create m.Machine.clock in
      let s = Sched.create m.Machine.sim d in
      let spawned =
        List.mapi
          (fun i priority ->
            Sched.spawn s ~priority ~name:(Printf.sprintf "p%d" i) (fun () -> ()))
          priorities in
      let got = Sched.runnable_strands s in
      let expected =
        (* Stable sort keeps spawn order inside each priority level. *)
        List.stable_sort
          (fun a b ->
            compare b.Spin_sched.Strand.priority a.Spin_sched.Strand.priority)
          spawned in
      List.map (fun st -> st.Spin_sched.Strand.id) got
      = List.map (fun st -> st.Spin_sched.Strand.id) expected)

(* One seed names one schedule: a fuzzed run re-executed with the
   same seed emits the identical trace event sequence. *)
let prop_fuzz_seed_replays_identically =
  QCheck2.Test.make ~name:"fuzz seed determines the whole schedule" ~count:12
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let observe () =
        let m = Machine.create ~name:"prop" ~mem_mb:4 () in
        let d = Dispatcher.create m.Machine.clock in
        let s = Sched.create m.Machine.sim d in
        let tr = Spin_machine.Trace.of_clock m.Machine.clock in
        Spin_machine.Trace.enable tr;
        let fz =
          Spin_sched.Sched_fuzz.attach ~cpus:[ m.Machine.cpu ] ~dispatcher:d
            ~mean_period:200 ~seed s in
        for i = 1 to 4 do
          ignore (Sched.spawn s ~name:(Printf.sprintf "w%d" i) (fun () ->
            for _ = 1 to 5 do
              Clock.charge m.Machine.clock (50 * i);
              Sched.yield s;
              Sched.sleep_us s (float_of_int i *. 1.5)
            done))
        done;
        Sched.run s;
        let st = Spin_sched.Sched_fuzz.stats fz in
        Spin_sched.Sched_fuzz.detach fz;
        ( List.map
            (fun r ->
              (r.Spin_machine.Trace.ts, r.Spin_machine.Trace.cat,
               r.Spin_machine.Trace.name))
            (Spin_machine.Trace.records tr),
          st.Spin_sched.Sched_fuzz.decisions,
          st.Spin_sched.Sched_fuzz.injected_preempts ) in
      observe () = observe ())

(* The MMU against a plain model: page tables as tables of mutable
   entries, the TLB as an association list from (context, vpn) to the
   entry it caches, and its FIFO as a key list that keeps the keys of
   dropped entries, as the hardware model does. Programs run over three
   contexts and enough pages to overflow the 128-entry TLB. *)
module Mmu = Spin_machine.Mmu
module Addr = Spin_machine.Addr

type mmu_op =
  | Map of int * int * int * bool         (* ctx, vpn, pfn, writable *)
  | Unmap of int * int
  | Protect of int * int * bool
  | Translate of int * int * int * bool   (* ctx, vpn, offset, write *)
  | Destroy of int

type model_pte = { m_pfn : int; mutable m_prot : Addr.prot; mutable m_mod : bool }

let mmu_contexts = 3
let mmu_pages = 100
let tlb_capacity = 128

let prop_mmu_matches_model =
  let open QCheck2.Gen in
  let c = int_bound (mmu_contexts - 1) and v = int_bound (mmu_pages - 1) in
  let op =
    frequency
      [ (10, map (fun (c, v, p, w) -> Map (c, v, p, w))
               (quad c v (int_bound 255) bool));
        (5, map2 (fun c v -> Unmap (c, v)) c v);
        (10, map3 (fun c v w -> Protect (c, v, w)) c v bool);
        (150, map (fun (c, v, o, w) -> Translate (c, v, o, w))
                (quad c v (int_bound (Addr.page_size - 1)) bool));
        (1, map (fun c -> Destroy c) c) ] in
  (* Unshrunk: a failing program of a thousand steps would take minutes
     to shrink, and the property prints no instance. *)
  QCheck2.Test.make ~name:"mmu and tlb agree with a fifo model" ~count:40
    (no_shrink (list_size (int_range 200 1000) op))
    (fun ops ->
      let m = Machine.create ~cpus:1 ~name:"mmu" ~mem_mb:4 () in
      let mmu = m.Machine.mmu in
      let ctxs = Array.init mmu_contexts (fun _ -> Mmu.create_context mmu) in
      let pt = Array.init mmu_contexts (fun _ -> Hashtbl.create 64) in
      let tlb = ref [] and fifo = ref [] in
      let hits = ref 0 and misses = ref 0 and live = ref mmu_contexts in
      let prot w = if w then Addr.prot_read_write else Addr.prot_read in
      let drop key = tlb := List.remove_assoc key !tlb in
      let map c vpn pfn w =
        Mmu.map mmu ctxs.(c) ~vpn ~pfn ~prot:(prot w);
        Hashtbl.replace pt.(c) vpn { m_pfn = pfn; m_prot = prot w; m_mod = false };
        drop (c, vpn) in
      (* Every page starts mapped, so translations fill the TLB. *)
      for c = 0 to mmu_contexts - 1 do
        for vpn = 0 to mmu_pages - 1 do map c vpn vpn true done
      done;
      let translate c vpn off w =
        let pte =
          match List.assoc_opt (c, vpn) !tlb with
          | Some pte -> incr hits; Some pte
          | None ->
            incr misses;
            (match Hashtbl.find_opt pt.(c) vpn with
             | None -> None
             | Some pte ->
               while List.length !tlb >= tlb_capacity do
                 match !fifo with
                 | [] -> tlb := []
                 | old :: rest -> fifo := rest; drop old
               done;
               tlb := ((c, vpn), pte) :: !tlb;
               fifo := !fifo @ [ (c, vpn) ];
               Some pte) in
        match pte with
        | None -> Error Mmu.Page_not_present
        | Some pte ->
          if not (Addr.prot_allows pte.m_prot (if w then `Write else `Read)) then
            Error Mmu.Protection_violation
          else begin
            if w then pte.m_mod <- true;
            Ok (Addr.pa_of_page pte.m_pfn + off)
          end in
      let same_entry c vpn =
        match Mmu.lookup ctxs.(c) ~vpn, Hashtbl.find_opt pt.(c) vpn with
        | None, None -> true
        | Some p, Some q ->
          p.Mmu.pfn = q.m_pfn && p.Mmu.prot = q.m_prot && p.Mmu.modified = q.m_mod
        | _ -> false in
      let step = function
        | Map (c, vpn, pfn, w) -> map c vpn pfn w; same_entry c vpn
        | Unmap (c, vpn) ->
          Mmu.unmap mmu ctxs.(c) ~vpn;
          Hashtbl.remove pt.(c) vpn;
          drop (c, vpn);
          same_entry c vpn
        | Protect (c, vpn, w) ->
          let expect =
            match Hashtbl.find_opt pt.(c) vpn with
            | None -> false
            | Some pte -> pte.m_prot <- prot w; drop (c, vpn); true in
          Mmu.protect mmu ctxs.(c) ~vpn ~prot:(prot w) = expect && same_entry c vpn
        | Translate (c, vpn, off, w) ->
          let va = (vpn * Addr.page_size) + off in
          let got =
            match Mmu.translate mmu ctxs.(c) ~va (if w then Mmu.Write else Mmu.Read) with
            | pa -> Ok pa
            | exception Mmu.Fault f -> Error f in
          got = translate c vpn off w && same_entry c vpn
        | Destroy c ->
          Mmu.destroy_context mmu ctxs.(c);
          Hashtbl.iter (fun vpn _ -> drop (c, vpn)) pt.(c);
          Hashtbl.reset pt.(c);
          decr live;
          Mmu.contexts mmu = !live in
      List.for_all
        (fun o -> step o && Mmu.tlb_stats mmu = (!hits, !misses))
        ops
      && List.for_all
           (fun c -> List.for_all (same_entry c) (List.init mmu_pages Fun.id))
           (List.init mmu_contexts Fun.id))

(* ------------------------------------------------------------------ *)
(* Phys_addr: the live set agrees with a list model                   *)
(* ------------------------------------------------------------------ *)

(* [live_pages] is the live set newest first and never holds a
   released page; the default victim is the oldest. mem-pressure's
   victim handler walks the list in exactly this order. A 1 MB machine
   (128 frames) runs out, so allocations also reclaim: each takes the
   model's oldest pages, as many as the service counts. *)
type phys_op = Alloc of int | Dealloc of int | Reclaim

let prop_live_pages_match_model =
  QCheck2.Test.make ~name:"phys_addr live pages agree with a list model"
    ~count:100
    QCheck2.Gen.(
      list_size (int_range 1 150)
        (frequency
           [ (5, map (fun n -> Alloc n) (int_range 1 3));
             (3, map (fun i -> Dealloc i) (int_range 0 1000));
             (2, pure Reclaim) ]))
    (fun ops ->
      let m = Machine.create ~name:"prop" ~mem_mb:1 () in
      let phys = Phys_addr.create m (Dispatcher.create m.Machine.clock) in
      let model = ref [] and released = ref [] in
      let drop_oldest k =
        let keep = List.length !model - k in
        released := List.filteri (fun i _ -> i >= keep) !model @ !released;
        model := List.filteri (fun i _ -> i < keep) !model in
      let step = function
        | Alloc n ->
          let before = Phys_addr.reclaims phys in
          let got =
            match
              Phys_addr.allocate phys ~owner:"prop"
                ~bytes:(n * Spin_machine.Addr.page_size)
            with
            | p -> Some p
            | exception Phys_addr.Out_of_memory -> None in
          drop_oldest (Phys_addr.reclaims phys - before);
          Option.iter (fun p -> model := p :: !model) got;
          true
        | Dealloc i ->
          (match !model with
           | [] -> ()
           | live ->
             let p = List.nth live (i mod List.length live) in
             Phys_addr.deallocate phys p;
             model := List.filter (fun q -> q != p) live;
             released := p :: !released);
          true
        | Reclaim ->
          let oldest =
            match List.rev !model with [] -> None | p :: _ -> Some p in
          let victim = Phys_addr.force_reclaim phys in
          (match victim with Some _ -> drop_oldest 1 | None -> ());
          (match victim, oldest with
           | Some v, Some o -> v == o
           | None, None -> true
           | Some _, None | None, Some _ -> false) in
      List.for_all
        (fun op ->
          step op
          && (let live = Phys_addr.live_pages phys in
              List.length live = List.length !model
              && List.for_all2 ( == ) live !model
              && List.for_all Capability.is_valid live
              && not (List.exists Capability.is_valid !released)))
        ops)

let prop_ip_addr_roundtrip =
  QCheck2.Test.make ~name:"ip address quad/string roundtrip" ~count:200
    QCheck2.Gen.(quad (int_range 0 255) (int_range 0 255) (int_range 0 255)
                   (int_range 0 255))
    (fun (a, b, c, d) ->
      let addr = Ip.addr_of_quad a b c d in
      Ip.addr_to_string addr = Printf.sprintf "%d.%d.%d.%d" a b c d)

(* ------------------------------------------------------------------ *)
(* TCP: segments computed from runs survive loss, and both sides close *)
(* ------------------------------------------------------------------ *)

(* A sender keeps each [send] as one run and computes every segment
   from it, first transmissions and Go-Back-N resends alike. Over a
   link that drops every k-th frame, sends of sizes around the MSS
   boundaries arrive intact, and once both sides close, both
   connections reach CLOSED. The receiver reads through the blocking
   path (the connection's receive buffer) until the end of the stream,
   then closes.

   Every fourth frame lost is the exception: the handshake's three
   frames put the first data segment on the fourth, and once a whole
   Go-Back-N round is a multiple of four frames the round's first
   segment is lost every time, the receiver sends nothing back, and
   the sender gives up after its retries. There, what arrives is still
   a prefix of what was sent, and the sender still ends CLOSED. *)

let send_size_gen =
  QCheck2.Gen.(
    oneof
      [ oneofl [ 1; mss - 1; mss; mss + 1; 12 * 1024 ];
        int_range 1 (12 * 1024) ])

let prop_tcp_runs_survive_loss_and_close =
  QCheck2.Test.make ~name:"tcp runs arrive intact over loss, then close"
    ~count:60
    ~print:QCheck2.Print.(pair (list int) int)
    QCheck2.Gen.(
      pair (list_size (int_range 1 4) send_size_gen)
        (oneofl [ 0; 3; 4; 5; 6; 7; 8; 9 ]))
    (fun (sizes, every) ->
      let a, b = lossy_pair ~every in
      let received = Buffer.create 4096 in
      let sender = ref None and receiver = ref None in
      Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun conn ->
        receiver := Some conn;
        ignore (Sched.spawn b.Host.sched ~name:"reader" (fun () ->
          let rec drain () =
            let data = Tcp.read b.Host.tcp conn in
            if Bytes.length data > 0 then begin
              Buffer.add_bytes received data;
              drain ()
            end in
          drain ();
          Tcp.close b.Host.tcp conn)));
      let transfers =
        List.mapi
          (fun j n ->
            Bytes.init n (fun i ->
              Char.chr (((i * 13) + j + (i / mss)) land 255)))
          sizes in
      ignore (Sched.spawn a.Host.sched ~name:"send" (fun () ->
        match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
        | None -> ()
        | Some conn ->
          sender := Some conn;
          List.iter (Tcp.send a.Host.tcp conn) transfers;
          Tcp.close a.Host.tcp conn));
      Host.run_all [ a; b ];
      let sent = String.concat "" (List.map Bytes.to_string transfers)
      and got = Buffer.contents received in
      let closed = function
        | Some c -> Tcp.state c = Tcp.Closed
        | None -> false in
      String.length got <= String.length sent
      && String.sub sent 0 (String.length got) = got
      && closed !sender
      && (every = 4 || (got = sent && closed !receiver)))

let () =
  Alcotest.run "spin_properties"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_tcp_stream_integrity;
            prop_tcp_chunks_isolated_under_retransmit;
            prop_fs_matches_model;
            prop_dispatcher_guard_semantics;
            prop_dispatcher_uninstall_complete;
            prop_virt_regions_disjoint;
            prop_pkt_push_pull_identity;
            prop_pkt_roundtrip_at_random_offset;
            prop_pkt_view_aliases_copy_isolates;
            prop_pkt_headroom_exhaustion_reallocs;
            prop_dllist_matches_model;
            prop_pqueue_pops_sorted;
            prop_runnable_strands_ordered;
            prop_fuzz_seed_replays_identically;
            prop_ip_addr_roundtrip;
            prop_mmu_matches_model;
            prop_live_pages_match_model;
            prop_tcp_runs_survive_loss_and_close;
          ] );
    ]

(* ext-churn: extension install, verification, gating and hot swap
   running alongside raises on one dispatcher (the trade a dispatch
   plan would make: cheaper raises, dearer installs). 8 clients in a
   closed loop against a 1-CPU server with HTTP.GenContent ask for a
   mix of static files, the WebGen generator's /live and 16 verified
   routes. A churn strand installs a fresh route every 1 ms and
   uninstalls the oldest (each route path always keeps one live
   handler), and every 10 ms the generator is hot-swapped for its next
   generation. Every body is checked, and WebGen's request counter must
   run 1, 2, 3, ... across the swaps. *)

open Spin_net
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sched = Spin_sched.Sched
module Dispatcher = Spin_core.Dispatcher
module Object_file = Spin_core.Object_file
module Kdomain = Spin_core.Kdomain
module Univ = Spin_core.Univ
module Swap = Spin.Swap

let clients = 8
let n_files = 16
let n_routes = n_files       (* a request's target indexes either *)
let churn_us = 1_000.
let swap_us = 10_000.

let p_install = Probe.point "dispatcher" "install"
let p_hot_swap = Probe.point "swap" "hot_swap"
let p_pause = Probe.point "swap" "pause"

(* One generation of WebGen: serves /live as "generation g, request n"
   and carries n across a swap through checkpoint/restore. *)
let state_tag : int Univ.tag = Univ.tag ~name:"WebGen.State" ()

let webgen ~version http =
  let served = ref 0 in
  let b =
    Object_file.Builder.create ~name:"WebGen" ~safety:Object_file.Compiler_signed () in
  Object_file.Builder.set_version b version;
  Object_file.Builder.set_init b (fun () ->
    ignore (Http.install_route http ~installer:"WebGen" ~path:"live" (fun _ ->
      incr served;
      Some (Bytes.of_string (Printf.sprintf "generation %d, request %d\n" version !served)))));
  Object_file.Builder.export b Swap.checkpoint_sym
    (Univ.pack Swap.checkpoint_tag (fun () -> Univ.pack state_tag !served));
  Object_file.Builder.export b Swap.restore_sym
    (Univ.pack Swap.restore_tag (fun u ->
       Option.iter (fun n -> served := n) (Univ.unpack state_tag u)));
  Object_file.Builder.build b

(* The request number in a /live body, if it is well formed. *)
let live_request body =
  Scanf.sscanf_opt body "generation %d, request %d\n%!" (fun _ n -> n)

let route_path s = Printf.sprintf "r%02d" s

let file_sizes = Inputs.sizes ~lo:1024 ~hi:4096 n_files
let route_sizes = Inputs.sizes ~lo:256 ~hi:1024 n_routes

(* Request kinds and their shares: static file, /live, a route. *)
type kind = Static | Live | Route

let kinds = [| Static; Live; Route |]
let shares = [| 4.; 2.; 4. |]

let setup (r : Fixture.round) =
  let files = Array.map (Inputs.bytes r.rng) file_sizes in
  let route_body = Array.map (Inputs.bytes r.rng) route_sizes in
  let kind = Inputs.exact_mix r.rng shares r.size in
  let target = Inputs.uniform r.rng ~lo:0 ~hi:(n_files - 1) r.size in
  let p = Fixture.pair ~cpus:1 ~kind:Spin_machine.Nic.T3 ~mbps:622. () in
  let w = Fixture.web_server ~dynamic:true p files in
  let server = p.Fixture.server and clock = p.Fixture.clock in
  let http = w.Fixture.http in
  Http.set_fallback http (Bytes.of_string "unavailable\n");
  let content = Option.get (Http.content_event http) in
  Fixture.warm w;                          (* the disk stays out of it *)
  let install_route s =
    Probe.call clock p_install (fun () ->
        match
          Http.install_route http ~installer:"routes" ~path:(route_path s) (fun _ ->
              Some route_body.(s))
        with
        | Some h -> h
        | None -> failwith "ext-churn: server has no content event") in
  let routes = Queue.create () in
  for s = 0 to n_routes - 1 do Queue.add (s, install_route s) routes done;
  let swap = Swap.create server.Host.sched server.Host.dispatcher in
  let dom = ref (Kdomain.create_exn (webgen ~version:1 http)) in
  Kdomain.initialize !dom;
  let version = ref 1 and live_seen = ref [] and stop = ref false in
  let go () =
    Fixture.watch_runnable (Fixture.scheds p);
    (* Replaces the oldest route with a fresh install of the same path. *)
    ignore (Sched.spawn server.Host.sched ~name:"churn" (fun () ->
      while not !stop do
        Sched.sleep_us server.Host.sched churn_us;
        let s, oldest = Queue.pop routes in
        Queue.add (s, install_route s) routes;
        Dispatcher.uninstall content oldest
      done));
    ignore (Sched.spawn server.Host.sched ~name:"swapper" (fun () ->
      while not !stop do
        Sched.sleep_us server.Host.sched swap_us;
        incr version;
        match
          Probe.call clock p_hot_swap (fun () ->
              Swap.hot_swap swap ~old_domain:!dom
                ~replacement:(webgen ~version:!version http)
                ~prepare:Kdomain.create ~activate:(fun d -> dom := d) ())
        with
        | Ok o ->
          if Probe.counting () then
            Probe.record p_pause
              ~cycles:(Cost.us_to_cycles Cost.alpha_133 o.Swap.sw_pause_us) ~ns:0
        | Error _ -> ()
      done));
    let t_start = Clock.now clock in
    Fixture.closed_loop p r ~clients ~on_done:(fun () -> stop := true) (fun rid ->
          match kinds.(kind.(rid)) with
          | Static -> Fixture.fetch_file w ~rid target.(rid)
          | Live ->
            (match Option.bind (Fixture.http_get w ~rid "live") live_request with
             | Some n -> live_seen := n :: !live_seen; true
             | None -> false)
          | Route ->
            let s = target.(rid) in
            Fixture.http_get w ~rid (route_path s) = Some (Bytes.to_string route_body.(s)));
    (* A request takes ~1 ms of virtual time; 10 ms each is the limit.
       Only the last client's completion stops the churn before it. *)
    Fixture.run_bounded p r ~t_start ~limit_us:(float_of_int r.size *. 10_000.)
      ~finished:(fun () -> !stop) ~give_up:(fun () -> stop := true);
    (* Counter continuity: the generator answered 1, 2, ..., n across
       every generation, each number once. *)
    let seen = List.sort compare !live_seen in
    if not (List.equal ( = ) seen (List.init (List.length seen) (fun i -> i + 1))) then
      Fixture.finish r ~ok:false 0 in
  let read () =
    let st = Swap.stats swap in
    Fixture.web_counters w ()
    @ [ ("dispatcher.gated_waits", (Dispatcher.stats content).Dispatcher.gated_waits);
        ("swap.swaps", st.Swap.swaps);
        ("swap.held_raises", st.Swap.held_raises);
        ("swap.failed_swaps", st.Swap.failed_swaps) ] in
  { Fixture.clock; read; go; audit = Fixture.audit_pair p }

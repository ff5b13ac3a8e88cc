(* Live extension update under load: hot-swap the HTTP content
   generator mid-ramp and the video codec mid-stream (Spin.Swap).

   The windows are short enough that nothing is dropped: requests that
   arrive while the gates are closed park at the event's edge and
   complete against the replacement handlers; the generator's request
   counter survives each generation through checkpoint/restore; and
   every capability the retired instance minted dies by epoch — stale
   use faults as [Capability.Revoked] instead of dangling.

   Reported: zero-drop accounting for both workloads and the tracer's
   exact ["swap.pause"] aggregate (what a request arriving mid-swap
   waits), whose mean and max the gate pins. *)

open Spin_net
module Swap = Spin.Swap
module Dispatcher = Spin_core.Dispatcher
module Object_file = Spin_core.Object_file
module Kdomain = Spin_core.Kdomain
module Capability = Spin_core.Capability
module Univ = Spin_core.Univ
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Machine = Spin_machine.Machine
module Nic = Spin_machine.Nic
module Trace = Spin_machine.Trace
module Sched = Spin_sched.Sched

(* ------------------------------------------------------------------ *)
(* One generation of the "WebGen" content generator                    *)
(* ------------------------------------------------------------------ *)

(* The externalized state a swap must carry across generations: how
   many requests this extension has served over its whole life. *)
let state_tag : int Univ.tag = Univ.tag ~name:"WebGen.State" ()

let webgen ~version http =
  let served = ref 0 in
  let b =
    Object_file.Builder.create ~name:"WebGen"
      ~safety:Object_file.Compiler_signed () in
  Object_file.Builder.set_version b version;
  Object_file.Builder.set_init b (fun () ->
    match Http.content_event http with
    | None -> ()
    | Some ev ->
      ignore
        (Dispatcher.ok_exn ~site:"b_swap" @@
         Dispatcher.install ev ~installer:"WebGen" (fun path ->
           if String.equal path "live" then begin
             incr served;
             Some
               (Bytes.of_string
                  (Printf.sprintf "generation %d, request %d\n" version
                     !served))
           end
           else None)));
  Object_file.Builder.export b Swap.checkpoint_sym
    (Univ.pack Swap.checkpoint_tag (fun () -> Univ.pack state_tag !served));
  Object_file.Builder.export b Swap.restore_sym
    (Univ.pack Swap.restore_tag (fun u ->
       match Univ.unpack state_tag u with
       | Some n -> served := n
       | None -> ()));
  (Object_file.Builder.build b, served)

(* ------------------------------------------------------------------ *)
(* HTTP: upgrade the generator while the ramp is in full flight        *)
(* ------------------------------------------------------------------ *)

let http_clients = 6
let requests_per_client = 25
let http_swaps = 8

let http_half () =
  let w = B_web.fixture () in
  let client = w.B_web.client and server = w.B_web.server
  and http = w.B_web.http in
  let tr = Trace.of_clock w.B_web.clock in
  Trace.enable tr;
  let swap = Swap.create server.Host.sched server.Host.dispatcher in
  (* Generation 1 comes up before the load does. *)
  let obj1, served1 = webgen ~version:1 http in
  let dom = ref (Kdomain.create_exn obj1) in
  Kdomain.initialize !dom;
  let live_counter = ref served1 in
  (* A client-held reference into generation 1 — the swap must revoke
     it, not leave it dangling into retired code. *)
  let stale_cap = Capability.mint ~owner:"WebGen" "generation 1 session" in
  for c = 1 to http_clients do
    ignore
      (Sched.spawn client.Host.sched ~name:(Printf.sprintf "load-%d" c)
         (fun () ->
           for _ = 1 to requests_per_client do
             ignore (B_web.get ~path:"live" w)
           done))
  done;
  let outcomes = ref [] and failures = ref [] in
  ignore
    (Sched.spawn server.Host.sched ~name:"swapper" (fun () ->
       for g = 2 to http_swaps + 1 do
         Sched.sleep_us server.Host.sched 400.;
         let obj, served = webgen ~version:g http in
         match
           Swap.hot_swap swap ~old_domain:!dom ~replacement:obj
             ~prepare:Kdomain.create
             ~activate:(fun d ->
               dom := d;
               live_counter := served)
             ()
         with
         | Ok o -> outcomes := o :: !outcomes
         | Error e -> failures := Swap.error_to_string e :: !failures
       done));
  B_web.run w;
  let st = Http.stats http in
  let expected = http_clients * requests_per_client in
  let dropped = expected - st.Http.ok in
  let revoked =
    match Capability.deref stale_cap with
    | exception Capability.Revoked _ -> true
    | _ -> false in
  let continuity = !(!live_counter) = st.Http.dynamic in
  (tr, swap, !outcomes, !failures, st, expected, dropped, revoked, continuity)

(* ------------------------------------------------------------------ *)
(* Video: upgrade the codec fan-out mid-stream                         *)
(* ------------------------------------------------------------------ *)

let addr_vserver = Ip.addr_of_quad 10 0 0 1
let addr_vsink = Ip.addr_of_quad 10 0 0 2
let frame_bytes = 12_500
let fps = 30

(* One generation of the "VideoCodec" fan-out extension. It keeps no
   state of its own — a legal Checkpointable citizen with nothing to
   checkpoint — and a newer generation patches headers cheaper. *)
let codec ~version video =
  let b =
    Object_file.Builder.create ~name:"VideoCodec"
      ~safety:Object_file.Compiler_signed () in
  Object_file.Builder.set_version b version;
  Object_file.Builder.set_init b (fun () ->
    let patch_cost = if version >= 2 then 38 else 45 in
    ignore (Video.install_mcast ~patch_cost video ~installer:"VideoCodec"));
  Object_file.Builder.build b

let video_half () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let server = Host.create sim ~name:"vserver" ~addr:addr_vserver in
  let sink = Host.create sim ~name:"vsink" ~addr:addr_vsink in
  let nic, _ = Host.wire server sink ~kind:Nic.T3 in
  let disk = Machine.add_disk ~blocks:65536 server.Host.machine in
  let bc =
    Spin_fs.Block_cache.create ~phys:server.Host.phys server.Host.machine
      server.Host.sched disk in
  let tr = Trace.of_clock clock in
  Trace.enable tr;
  let video = ref None in
  ignore (Sched.spawn server.Host.sched ~name:"setup" (fun () ->
    let fs = Spin_fs.Simple_fs.format bc ~blocks:65536 () in
    let v = Video.create_server ~mcast:false server ~fs ~netif:nic ~port:5004 in
    Video.load_frames v ~count:15 ~frame_bytes;
    video := Some v));
  Host.run_all [ server; sink ];
  let video = Option.get !video in
  let viewer = Video.create_client sink ~port:5004 in
  for _ = 1 to 4 do Video.add_client video addr_vsink done;
  let swap = Swap.create server.Host.sched server.Host.dispatcher in
  let dom = ref (Kdomain.create_exn (codec ~version:1 video)) in
  Kdomain.initialize !dom;
  ignore (Sched.spawn server.Host.sched ~name:"streamer" (fun () ->
    Video.stream video ~fps ~duration_s:1.0));
  let outcomes = ref [] and failures = ref [] in
  ignore (Sched.spawn server.Host.sched ~name:"swapper" (fun () ->
    List.iter
      (fun (delay_us, version) ->
        Sched.sleep_us server.Host.sched delay_us;
        match
          Swap.hot_swap swap ~old_domain:!dom
            ~replacement:(codec ~version video) ~prepare:Kdomain.create
            ~activate:(fun d -> dom := d) ()
        with
        | Ok o -> outcomes := o :: !outcomes
        | Error e -> failures := Swap.error_to_string e :: !failures)
      [ (450_000., 2); (250_000., 3) ]));
  Host.run_all [ server; sink ];
  let sent = Video.packets_sent video in
  let displayed = Video.frames_displayed viewer in
  (tr, !outcomes, !failures, Video.frames_streamed video, sent, displayed)

(* ------------------------------------------------------------------ *)

let run () =
  Report.header "Live update: hot-swap under load (zero drops, bounded pause)";

  let tr, swap, outcomes, failures, st, expected, dropped, revoked, continuity
      = http_half () in
  Printf.printf "  HTTP: %d requests against %d generator swaps\n"
    st.Http.requests (List.length outcomes);
  List.iter (fun f -> Printf.printf "  swap FAILED: %s\n" f) failures;
  Printf.printf
    "    ok %d  dynamic %d  not-found %d  fallbacks %d  dropped %d/%d\n"
    st.Http.ok st.Http.dynamic st.Http.not_found st.Http.fallbacks dropped
    expected;
  let held =
    List.fold_left (fun a o -> a + o.Swap.sw_held_raises) 0 outcomes in
  let swept =
    List.fold_left (fun a o -> a + o.Swap.sw_handlers_swept) 0 outcomes in
  let ckpts =
    List.length (List.filter (fun o -> o.Swap.sw_checkpointed) outcomes) in
  Printf.printf
    "    held raises %d, handlers swept %d, checkpoints restored %d\n"
    held swept ckpts;
  Printf.printf "    request-counter continuity across generations: %b\n"
    continuity;
  Printf.printf "    stale generation-1 capability revoked: %b\n" revoked;
  let stats = Swap.stats swap in
  Report.metric ~unit_:"count" ~name:"http swaps"
    (float_of_int stats.Swap.swaps);
  Report.metric ~unit_:"count" ~name:"http requests dropped"
    (float_of_int dropped);
  Report.require ~name:"0 HTTP requests dropped" (dropped = 0);
  Report.metric ~unit_:"count" ~name:"held raises" (float_of_int held);
  (match Trace.summary tr ~key:"swap.pause" with
   | None -> print_endline "    no swap.pause samples?"
   | Some s ->
     Printf.printf
       "    swap pause (us): mean %.1f  min %.1f  max %.1f (n=%d)\n"
       s.Trace.mean_us s.Trace.min_us s.Trace.max_us s.Trace.count;
     Report.metric ~name:"swap pause mean" s.Trace.mean_us;
     Report.metric ~name:"swap pause max" s.Trace.max_us);

  let vtr, voutcomes, vfailures, frames, sent, displayed = video_half () in
  List.iter (fun f -> Printf.printf "  video swap FAILED: %s\n" f) vfailures;
  Printf.printf
    "  video: %d frames streamed across %d codec swaps; %d packets sent, %d displayed, %d lost\n"
    frames (List.length voutcomes) sent displayed (sent - displayed);
  List.iter
    (fun o ->
      Printf.printf "    codec v%d -> v%d: pause %.1f us, held %d\n"
        o.Swap.sw_from_version o.Swap.sw_to_version o.Swap.sw_pause_us
        o.Swap.sw_held_raises)
    (List.rev voutcomes);
  (match Trace.summary vtr ~key:"swap.pause" with
   | None -> ()
   | Some s ->
     Report.metric ~unit_:"us" ~name:"video swap pause mean" s.Trace.mean_us);
  Report.metric ~unit_:"count" ~name:"video packets lost"
    (float_of_int (sent - displayed));
  Report.require ~name:"no swap failures" (failures = [] && vfailures = []);
  Report.require ~name:"0 video packets lost" (sent = displayed);
  Report.note
    "  Requests and frames arriving inside a swap window are held at the\n\
    \  gate and complete against the replacement; stale capabilities fault\n\
    \  as Revoked.\n"

(* Install-time verification vs runtime guards: the Table 2-style
   dispatch microbenches run on both paths.

   A guarded handler pays guard evaluation and bounded-time policing
   on every event; a handler whose predicate verified at install
   dispatches trusted-fast, with zero per-event checks. The difference
   is the recurring cost SPIN's link-time safety argument says should
   not exist — this experiment measures it, plus the one-time
   verification cost an install pays to buy it, and the same trade on
   the section-2 packet-filter foil: one register-bytecode program on
   the receive path, interpreted and checked on every packet vs
   verified once and compiled.

   Everything here is virtual time on the simulated 133 MHz Alpha, so
   the numbers are deterministic and the gate pins every one. *)

module Dispatcher = Spin_core.Dispatcher
module Ebc = Spin_core.Ebc
module Ty = Spin_core.Ty
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
open Spin_net

let events = 1000

type probe = { port : int }

let probe_layout : probe Ebc.layout =
  Ebc.layout ~name:"Bench.Probe" ~fields:[ ("port", Ty.Int) ]
    ~read:(fun p _ -> p.port) ()

let fixture () =
  let clock = Clock.create Cost.alpha_133 in
  let disp = Dispatcher.create clock in
  let e =
    Dispatcher.declare disp ~name:"Bench.Probe" ~owner:"bench"
      ~layout:probe_layout
      ~allow_remove_primary:(fun ~requester:_ -> true)
      (fun (_ : probe) -> ()) in
  (* The installed handler IS the implementation (the Table 2 shape):
     retire the declaring module's default so both columns measure
     pure extension dispatch, not a shared primary invocation. *)
  (match Dispatcher.remove_primary e ~requester:"bench" with
   | Ok () -> ()
   | Error `Denied -> assert false);
  (clock, e)

let must = function
  | Ok h -> h
  | Error err ->
    failwith ("b_verifier install: " ^ Dispatcher.install_error_to_string err)

let install_guarded e port =
  ignore
    (must
       (Dispatcher.install e ~installer:"bench"
          ~spec:(Dispatcher.Handler_spec.guarded (fun p -> p.port = port))
          (fun _ -> ())))

let install_verified e port =
  ignore
    (must
       (Dispatcher.install e ~installer:"bench"
          ~spec:
            (Dispatcher.Handler_spec.verified (Ebc.match_field ~slot:0 port))
          (fun _ -> ())))

(* Cycles per event with [handlers] port-demux handlers installed and
   every raise matching exactly one of them — the 16-way case is the
   paper's active-messages demux shape. *)
let dispatch_cycles ~handlers install =
  let clock, e = fixture () in
  for port = 0 to handlers - 1 do install e port done;
  let spent =
    Clock.stamp clock (fun () ->
        for n = 0 to events - 1 do
          Dispatcher.raise_default e () { port = n mod handlers }
        done) in
  float_of_int spent /. float_of_int events

(* The one-time price of the trusted path: virtual cycles charged to
   verify and admit one port-demux program, reported in us. *)
let install_cost () =
  let clock, e = fixture () in
  let spent = Clock.stamp clock (fun () -> install_verified e 7) in
  Cost.cycles_to_us Cost.alpha_133 spent

(* The section-2 foil, both ways: one UDP port filter program,
   interpreted by the checked reference interpreter (every executed
   instruction charged, every packet) or verified at install and
   compiled (trusted-fast thereafter). *)
let frame_layout : Pkt.t Ebc.layout =
  Ebc.layout ~name:"Bench.PktArrived" ~fields:[ ("len", Ty.Int) ]
    ~read:(fun pkt _ -> Pkt.length pkt)
    ~payload:Pkt.ebc_payload ()

let udp_frame ~port =
  let b = Bytes.make 64 '\000' in
  Bytes.set_uint16_le b 0 0x0800;
  Bytes.set_uint8 b 2 Ip.proto_udp;
  Bytes.set_uint16_le b 16 port;
  Pkt.of_payload b

(* The foil's guard, shared with the ablation's little-language demux:
   interpret [program] over the frame, charging each executed step. *)
let interpret clock program pkt =
  let ok, steps = Ebc.run_counted ~layout:frame_layout program pkt in
  Clock.charge clock (steps * (Clock.cost clock).Cost.ebc_interp_step);
  ok

let filter_cycles ~compiled =
  let clock = Clock.create Cost.alpha_133 in
  let disp = Dispatcher.create clock in
  let e =
    Dispatcher.declare disp ~name:"Bench.PktArrived" ~owner:"bench"
      ~layout:frame_layout
      ~allow_remove_primary:(fun ~requester:_ -> true)
      (fun (_ : Pkt.t) -> ()) in
  (match Dispatcher.remove_primary e ~requester:"bench" with
   | Ok () -> ()
   | Error `Denied -> assert false);
  let program = Udp.frame_port_prog ~port:53 in
  let spec =
    if compiled then Dispatcher.Handler_spec.verified program
    else Dispatcher.Handler_spec.guarded (interpret clock program) in
  ignore (must (Dispatcher.install e ~installer:"bench" ~spec (fun _ -> ())));
  let matching = udp_frame ~port:53 in
  let other = udp_frame ~port:80 in
  let spent =
    Clock.stamp clock (fun () ->
        for n = 0 to events - 1 do
          Dispatcher.raise_default e ()
            (if n land 1 = 0 then matching else other)
        done) in
  float_of_int spent /. float_of_int events

let run () =
  Report.header
    "Verified bytecode: install-time checks vs per-event guards (cycles/event)";
  Printf.printf "%-34s %10s %10s %9s\n" "dispatch shape" "guarded" "verified"
    "speedup";
  let row name guarded verified =
    Printf.printf "%-34s %10.0f %10.0f %8.1fx\n" name guarded verified
      (guarded /. verified);
    guarded /. verified in
  let g1 = dispatch_cycles ~handlers:1 install_guarded in
  let v1 = dispatch_cycles ~handlers:1 install_verified in
  let s1 = row "1 handler, 1 guard" g1 v1 in
  let g16 = dispatch_cycles ~handlers:16 install_guarded in
  let v16 = dispatch_cycles ~handlers:16 install_verified in
  let s16 = row "16-way port demux" g16 v16 in
  let fi = filter_cycles ~compiled:false in
  let fc = filter_cycles ~compiled:true in
  let sf = row "packet filter (section 2 foil)" fi fc in
  let inst = install_cost () in
  Printf.printf "%-34s %10s %8.2f us  (one-time, per install)\n"
    "verification cost" "" inst;
  Report.note
    "  The guarded column pays guard evaluation per event; the verified\n\
    \  column moved the same predicate through the install-time verifier\n\
    \  and dispatches with zero per-event checks.\n";
  Report.metric ~name:"guarded 1-guard cycles/event" ~unit_:"cycles" g1;
  Report.metric ~name:"verified 1-guard cycles/event" ~unit_:"cycles" v1;
  Report.metric ~name:"speedup 1 guard" ~unit_:"ratio" s1;
  Report.metric ~name:"guarded demux16 cycles/event" ~unit_:"cycles" g16;
  Report.metric ~name:"verified demux16 cycles/event" ~unit_:"cycles" v16;
  Report.metric ~name:"speedup 16-way demux" ~unit_:"ratio" s16;
  Report.metric ~name:"filter interpreted cycles/pkt" ~unit_:"cycles" fi;
  Report.metric ~name:"filter verified cycles/pkt" ~unit_:"cycles" fc;
  Report.metric ~name:"speedup packet filter" ~unit_:"ratio" sf;
  Report.require ~name:"interpreted filter costs more than verified"
    (fi > fc);
  Report.metric ~name:"install verification us" inst

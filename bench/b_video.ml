(* Figure 6: video server CPU utilization as a function of the number
   of client streams, over the 45 Mb/s T3 DMA interface.

   SPIN: the kernel-extension server fetches each frame once, pushes
   each packet through the protocol graph once, and the multicast
   handler fans out at driver level — per-client work is a header
   patch and a DMA transmit.

   DEC OSF/1: the user-level server sends each stream separately —
   per client, per packet: a system call, a copy across the boundary,
   socket work, and a full protocol-stack traversal. *)

open Spin_net
module Machine = Spin_machine.Machine
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Nic = Spin_machine.Nic
module Sched = Spin_sched.Sched
module Bl_path = Spin_baseline.Bl_path
module Os_costs = Spin_baseline.Os_costs

let addr_server = Ip.addr_of_quad 10 0 0 1
let addr_sink = Ip.addr_of_quad 10 0 0 2

let frame_bytes = 12_500                  (* 3 Mb/s at 30 frames/s *)
let fps = 30

type setup = {
  clock : Clock.t;
  server : Host.t;
  sink : Host.t;
  video : Video.server;
}

let build () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let server = Host.create ~cpus:1 sim ~name:"server" ~addr:addr_server in
  let sink = Host.create ~cpus:1 sim ~name:"sink" ~addr:addr_sink in
  let nic, _ = Host.wire server sink ~kind:Nic.T3 in
  let disk = Machine.add_disk ~blocks:65536 server.Host.machine in
  let bc = Spin_fs.Block_cache.create ~phys:server.Host.phys server.Host.machine server.Host.sched disk in
  let video = ref None in
  ignore (Sched.spawn server.Host.sched ~name:"setup" (fun () ->
    let fs = Spin_fs.Simple_fs.format bc ~blocks:65536 () in
    let v = Video.create_server server ~fs ~netif:nic ~port:5004 in
    Video.load_frames v ~count:15 ~frame_bytes;
    video := Some v));
  Host.run_all [ server; sink ];
  ignore (Video.create_client sink ~port:5004);
  { clock; server; sink; video = Option.get !video }

(* SPIN: the real extension structure (warm pass, then measure the
   server's own streaming cycles over one second). *)
let spin_utilization ~clients =
  let s = build () in
  for _ = 1 to clients do Video.add_client s.video addr_sink done;
  ignore (Sched.spawn s.server.Host.sched ~name:"warm" (fun () ->
    Video.stream s.video ~fps ~duration_s:0.6));
  Host.run_all [ s.server; s.sink ];
  let busy0 = Video.server_busy_cycles s.video in
  let t0 = Clock.now s.clock in
  ignore (Sched.spawn s.server.Host.sched ~name:"measured" (fun () ->
    Video.stream s.video ~fps ~duration_s:1.0));
  Host.run_all [ s.server; s.sink ];
  let busy = Video.server_busy_cycles s.video - busy0 in
  let elapsed = Clock.now s.clock - t0 in
  100. *. float_of_int busy /. float_of_int elapsed

(* OSF/1: same machine, same driver, but a user-level server. *)
let osf_stream_second s ~clients =
  let osf = Os_costs.osf1 in
  let clock = s.clock in
  let mtu = 1460 in
  let frames = fps in
  let busy = ref 0 in
  ignore (Sched.spawn s.server.Host.sched ~name:"osf-server" (fun () ->
    for _ = 1 to frames do
      busy := !busy + Clock.stamp clock (fun () ->
        for _ = 1 to clients do
          (* The server writes the frame to this client's socket. *)
          let rec packets off =
            if off < frame_bytes then begin
              let chunk = min mtu (frame_bytes - off) in
              Bl_path.user_send_overhead clock osf ~bytes:chunk;
              ignore (Udp.send s.server.Host.udp ~src_port:5004 ~dst:addr_sink
                        ~port:5004 (Bytes.create chunk));
              packets (off + chunk)
            end in
          packets 0
        done);
      Sched.sleep_us s.server.Host.sched (1_000_000. /. float_of_int fps)
    done));
  let t0 = Clock.now clock in
  Host.run_all [ s.server; s.sink ];
  let elapsed = Clock.now clock - t0 in
  100. *. float_of_int !busy /. float_of_int elapsed

let osf_utilization ~clients =
  let s = build () in
  osf_stream_second s ~clients

(* The least-squares line through the points: its slope and R². *)
let fit points =
  let n = float_of_int (List.length points) in
  let mean f = List.fold_left (fun a p -> a +. f p) 0. points /. n in
  let mx = mean fst and my = mean snd in
  let sxy = mean (fun (x, y) -> (x -. mx) *. (y -. my))
  and sxx = mean (fun (x, _) -> (x -. mx) ** 2.)
  and syy = mean (fun (_, y) -> (y -. my) ** 2.) in
  (sxy /. sxx, sxy *. sxy /. (sxx *. syy))

(* How close to a straight line each curve must be: the paper's
   utilization grows linearly with the number of streams. *)
let linear_r2 = 0.99

let figure6 () =
  Report.header
    "Figure 6: video server CPU utilization vs client streams (T3, DMA)";
  Printf.printf "%-10s %14s %14s\n" "clients" "SPIN util %" "OSF/1 util %";
  let points = [ 2; 4; 6; 8; 10; 12; 14 ] in
  let results =
    List.map
      (fun n -> (n, spin_utilization ~clients:n, osf_utilization ~clients:n))
      points in
  let row n sys v =
    Report.metric ~unit_:"%" ~name:(Printf.sprintf "%d clients %s" n sys) v in
  List.iter
    (fun (n, spin, osf) ->
      Printf.printf "%-10d %14.1f %14.1f\n" n spin osf;
      row n "SPIN" spin;
      row n "DEC OSF/1" osf)
    results;
  let spin_slope, spin_r2 =
    fit (List.map (fun (n, s, _) -> (float_of_int n, s)) results)
  and osf_slope, osf_r2 =
    fit (List.map (fun (n, _, o) -> (float_of_int n, o)) results) in
  Printf.printf
    "least-squares slope (points/client): SPIN %.3f (R² %.4f), \
     OSF/1 %.3f (R² %.4f)\n"
    spin_slope spin_r2 osf_slope osf_r2;
  Report.require ~name:"SPIN's utilization slope below OSF/1's"
    (spin_slope < osf_slope);
  Report.require ~name:"SPIN's utilization is linear" (spin_r2 >= linear_r2);
  Report.require ~name:"OSF/1's utilization is linear" (osf_r2 >= linear_r2);
  (* ASCII rendering of the figure. *)
  print_endline "\n  util%  (s = SPIN, o = DEC OSF/1)";
  let max_util =
    List.fold_left (fun m (_, s, o) -> max m (max s o)) 1. results in
  let rows = 12 in
  for r = rows downto 1 do
    let level = max_util *. float_of_int r /. float_of_int rows in
    Printf.printf "  %5.1f |" level;
    List.iter
      (fun (_, s, o) ->
        let cell =
          match o >= level, s >= level with
          | true, true -> " b "                  (* both *)
          | true, false -> " o "
          | false, true -> " s "
          | false, false -> "   " in
        Printf.printf "  %s " cell)
      results;
    print_newline ()
  done;
  Printf.printf "        +%s\n         " (String.make (List.length results * 6) '-');
  List.iter (fun (n, _, _) -> Printf.printf "  %2d   " n) results;
  print_newline ();
  Printf.printf
    "\n  Paper: at 15 streams both saturate the network; SPIN consumes\n\
    \  about half the processor of OSF/1.\n"

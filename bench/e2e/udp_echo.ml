(* udp-echo: the smallest-packet path (netif -> IP -> UDP -> dispatcher)
   under an open loop. A generator strand on the client sends 64-byte
   datagrams at Poisson arrival times to 16 echo ports (verified port
   demux) on a 1-CPU server over T3; every echo must come back with its
   own sequence number and bytes. Latency runs from each datagram's due
   time, so a stalled generator charges its wait to the datagrams
   behind it; how late the generator ran is reported too. The nominal
   rate is ~70% of the saturation rate, where queueing turns small
   per-packet savings into visible p99 changes. No TCP, file system or
   SMP on this path.

   A ladder of fresh fixtures from 2,000/s upward in steps of 250/s
   finds slo_rate_per_s: the highest rate whose p99 is at most 2 ms with
   no loss and no growing backlog (the last tenth of datagrams averages
   at most twice the latency of the first tenth). *)

open Spin_net
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sched = Spin_sched.Sched

let ports = 16
let base_port = 7000
let reply_port = 9000
let payload_bytes = 64
let nominal_rate = 4000.

let payload_byte seq k = Char.chr (((seq * 31) + (k * 7)) land 0xff)

(* Datagram [seq]: its sequence number, then a pattern derived from it. *)
let payload seq =
  let b = Bytes.init payload_bytes (payload_byte seq) in
  Bytes.set_int64_le b 0 (Int64.of_int seq);
  b

(* The sequence number of an echo that carries exactly datagram
   [seq]'s bytes, else -1. *)
let echoed_seq b =
  if Pkt.length b <> payload_bytes then -1
  else
    let seq = Int64.to_int (Pkt.get_i64_le b 0) in
    let buf, off, _ = Pkt.view b in
    let rec same k =
      k = payload_bytes || (Bytes.get buf (off + k) = payload_byte seq k && same (k + 1)) in
    if seq >= 0 && same 8 then seq else -1

let p_send = Probe.point "udp" "send"
let p_late = Probe.point "udp" "gen_late"

(* One open-loop burst of [n] datagrams at [rate]/s on a fresh pair:
   latencies go to [on_reply]; [go] returns how many echoes came back
   intact and the virtual span from the burst's start to the last. *)
let burst (rng : Inputs.rng) ~rate ~n ~on_reply =
  let p = Fixture.pair ~cpus:1 ~kind:Spin_machine.Nic.T3 () in
  let server = p.Fixture.server and client = p.Fixture.client in
  for k = 0 to ports - 1 do
    ignore (Udp.listen server.Host.udp ~port:(base_port + k) ~installer:"echo"
              (fun d ->
                 ignore (Udp.send_pkt server.Host.udp ~src_port:d.Udp.dst_port
                           ~dst:d.Udp.src ~port:d.Udp.src_port d.Udp.payload)))
  done;
  let port = Inputs.uniform rng ~lo:base_port ~hi:(base_port + ports - 1) n in
  (* Nothing advances the clock between here and [go]. *)
  let start = Clock.now p.Fixture.clock in
  let due =
    Array.map (fun us -> start + Cost.us_to_cycles Cost.alpha_133 us)
      (Inputs.arrivals rng ~rate n) in
  let seen = Array.make n false and good = ref 0 and last = ref 0 in
  ignore (Udp.listen client.Host.udp ~port:reply_port ~installer:"sink" (fun d ->
    let now = Clock.now p.Fixture.clock in
    let seq = echoed_seq d.Udp.payload in
    if seq >= 0 && seq < n && (not seen.(seq)) && d.Udp.src_port = port.(seq)
    then begin
      seen.(seq) <- true;
      incr good;
      last := now;
      on_reply seq (now - due.(seq))
    end));
  let go () =
    ignore (Sched.spawn client.Host.sched ~name:"generator" (fun () ->
      for s = 0 to n - 1 do
        let now = Clock.now p.Fixture.clock in
        if due.(s) > now then
          Sched.sleep_us client.Host.sched
            (Cost.cycles_to_us Cost.alpha_133 (due.(s) - now));
        if Probe.counting () then
          Probe.record p_late ~cycles:(Clock.now p.Fixture.clock - due.(s)) ~ns:0;
        ignore (Probe.call p.Fixture.clock p_send ~rid:s (fun () ->
            Udp.send client.Host.udp ~src_port:reply_port ~dst:Fixture.addr_server
              ~port:port.(s) (payload s)))
      done));
    Fixture.run p;
    (!good, !last - start) in
  (p, go)

let setup (r : Fixture.round) =
  let p, go =
    burst r.rng ~rate:nominal_rate ~n:r.size ~on_reply:(fun _ lat ->
        Fixture.finish r ~ok:true lat) in
  let go () =
    Fixture.watch_runnable (Fixture.scheds p);
    let good, span = go () in
    for _ = good + 1 to r.size do Fixture.finish r ~ok:false 0 done;
    r.elapsed <- span in
  { Fixture.clock = p.Fixture.clock; read = Fixture.pair_counters p; go;
    audit = Fixture.audit_pair p }

(* ------------------------------------------------------------------ *)
(* The SLO ladder                                                      *)
(* ------------------------------------------------------------------ *)

let slo_p99_us = 2000.

let meets_slo ~seed ~rung ~rate ~n =
  let lat = Array.make n (-1) in
  let _, go =
    burst (Inputs.round_rng ~seed ~round:(10_000 + rung)) ~rate ~n
      ~on_reply:(fun seq c -> lat.(seq) <- c) in
  let good, _ = go () in
  let us c = Cost.cycles_to_us Cost.alpha_133 c in
  let mean lo hi =
    let s = ref 0 in
    for i = lo to hi - 1 do s := !s + lat.(i) done;
    us !s /. float_of_int (hi - lo) in
  good = n
  && (let samples = Stats.samples () in
      Array.iter (Stats.add samples) lat;
      us (Stats.percentile samples 99) <= slo_p99_us)
  && mean (n - (n / 10)) n <= 2. *. mean 0 (n / 10)

let ladder ~seed ~smoke =
  let n = if smoke then 200 else 2000 in
  let rec climb rung best =
    let rate = 2000. +. (250. *. float_of_int rung) in
    if rate > 8000. then best
    else if meets_slo ~seed ~rung ~rate ~n then climb (rung + 1) rate
    else best in
  [ { Harness.m_name = "slo_rate_per_s"; value = climb 0 0.; unit_ = "1/s" } ]

(* HTTP load scaling over the zero-copy packet path (section 5.4,
   extended): a closed loop of 1..N simulated clients against the
   in-kernel web server, reporting requests/sec, exact nearest-rank
   p50/p99 request latency and host allocation per request — plus a
   direct before/after measurement of host allocation per forwarded
   packet, replaying the seed Pkt's copy discipline against today's
   view discipline.

     dune exec bench/main.exe load
     dune exec bench/main.exe -- --json BENCH_load.json load *)

open Spin_net

(* ------------------------------------------------------------------ *)
(* Closed-loop ramp against the in-kernel server                      *)
(* ------------------------------------------------------------------ *)

let requests_per_client = 20

(* Host bytes allocated on the minor heap so far. Unlike
   [Gc.allocated_bytes], which nets out words promoted by whichever
   minor collections fall inside a window (so it moves with GC phase),
   this is exact for a given amount of work — spinbench's
   [host_words_per_op] counts the same way. *)
let minor_bytes () = Gc.minor_words () *. float_of_int (Sys.word_size / 8)

(* One ramp level of {!B_web.closed_loop}: requests/sec, the p50 and
   p99 of its per-request latencies, and host bytes allocated per
   request. *)
let run_level ~clients =
  let w = B_web.fixture () in
  let rps, latencies =
    B_web.closed_loop ~clients ~requests:requests_per_client w in
  let host_alloc0 = minor_bytes () in
  B_web.run w;
  let alloc_per_req =
    (minor_bytes () -. host_alloc0)
    /. float_of_int (clients * requests_per_client) in
  (rps (), B_web.percentile_us w latencies 50,
   B_web.percentile_us w latencies 99, alloc_per_req)

(* ------------------------------------------------------------------ *)
(* Host allocation per forwarded packet, before vs after              *)
(* ------------------------------------------------------------------ *)

(* Wire framing of this stack: link (2) + IP (12) + UDP (8). *)
let link_hdr = 2
let ip_hdr = 12
let udp_hdr = Udp.header_bytes

(* The seed's Pkt materialized every layer's slice. This replays, with
   plain [Bytes], the exact allocation sequence of a UDP echo on that
   discipline: driver [of_payload] copy; IP's [peek] guard, two
   [pull]s (head + tail each), [contents], and declared-length [sub];
   UDP's payload [sub] — then the transmit side rebuilds the frame
   ([encode_datagram], [of_payload], two [push]-by-concatenation) and
   the driver takes its [contents] copy. *)
let legacy_echo frame =
  let total = Bytes.length frame in
  let p = Bytes.copy frame in                               (* rx DMA wrap *)
  ignore (Bytes.sub p 0 link_hdr);                          (* guard peek *)
  let p = Bytes.sub p link_hdr (total - link_hdr) in        (* pull link *)
  let _h = Bytes.sub p 0 ip_hdr in
  let p = Bytes.sub p ip_hdr (Bytes.length p - ip_hdr) in   (* pull IP *)
  let dgram = Bytes.copy p in                               (* contents *)
  let dgram = Bytes.sub dgram 0 (Bytes.length dgram) in     (* len check *)
  let plen = Bytes.length dgram - udp_hdr in
  let payload = Bytes.sub dgram udp_hdr plen in             (* UDP payload *)
  let out = Bytes.make (udp_hdr + plen) '\000' in           (* encode dgram *)
  Bytes.blit payload 0 out udp_hdr plen;
  let out = Bytes.copy out in                               (* of_payload *)
  let out = Bytes.cat (Bytes.make ip_hdr '\000') out in     (* push IP *)
  let out = Bytes.cat (Bytes.make link_hdr '\000') out in   (* push link *)
  Bytes.copy out                                            (* tx contents *)

(* The same echo on today's Pkt: the frame is wrapped in place, each
   layer drops its header by advancing the view, the response headers
   are pushed into the consumed headroom, and the only copy left is
   the device DMA when the frame goes back on the wire. *)
let zerocopy_echo frame =
  let p = Pkt.of_frame frame ~len:(Bytes.length frame) in
  ignore (Pkt.get_u16_le p 0);                              (* guard in place *)
  Pkt.drop p link_hdr;
  Pkt.drop p ip_hdr;
  let plen = Pkt.length p - udp_hdr in
  let d = Pkt.sub p ~pos:udp_hdr ~len:plen in               (* payload view *)
  let off = Pkt.reserve d udp_hdr in                        (* echo headers *)
  let buf = Pkt.buffer d in
  Bytes.set_uint16_le buf off 7;
  Bytes.set_uint16_le buf (off + 2) 7;
  Bytes.set_uint16_le buf (off + 4) plen;
  Bytes.set_uint16_le buf (off + 6) 0;
  let off = Pkt.reserve d ip_hdr in
  let buf = Pkt.buffer d in
  Bytes.fill buf off ip_hdr '\000';
  let off = Pkt.reserve d link_hdr in
  let buf = Pkt.buffer d in
  Bytes.set_uint16_le buf off 0x0800;
  let buf, off, len = Pkt.view d in
  Bytes.sub buf off len                                     (* device DMA *)

let alloc_per_packet f =
  let payload = 1024 in
  let frame = Bytes.make (link_hdr + ip_hdr + udp_hdr + payload) 'x' in
  Bytes.set_uint16_le frame 0 0x0800;
  for _ = 1 to 256 do ignore (Sys.opaque_identity (f frame)) done;
  let iters = 20_000 in
  let before = minor_bytes () in
  for _ = 1 to iters do ignore (Sys.opaque_identity (f frame)) done;
  (minor_bytes () -. before) /. float_of_int iters

let alloc_comparison () =
  Report.header
    "Host allocation per forwarded packet (UDP echo, 1024-byte payload)";
  let legacy = alloc_per_packet legacy_echo in
  let zerocopy = alloc_per_packet zerocopy_echo in
  let ratio = legacy /. zerocopy in
  Printf.printf "%-42s %12s\n" "packet discipline" "bytes/pkt";
  Printf.printf "%-42s %12.0f\n" "seed Pkt (copy per layer)" legacy;
  Printf.printf "%-42s %12.0f\n" "zero-copy views (this tree)" zerocopy;
  Printf.printf "  ratio: %.1fx fewer host bytes per packet (>= 2x required)\n"
    ratio;
  Report.host ~unit_:"B" ~name:"alloc/pkt seed Pkt" legacy;
  Report.host ~unit_:"B" ~name:"alloc/pkt zero-copy" zerocopy;
  Report.host ~unit_:"x" ~name:"alloc ratio" ratio;
  Report.require ~name:"alloc ratio >= 2" (ratio >= 2.)

(* ------------------------------------------------------------------ *)

let run () =
  Report.header
    "HTTP load scaling, closed loop over the zero-copy path (5.4)";
  Printf.printf "%-8s %10s %12s %12s %14s\n"
    "clients" "req/s" "p50 (us)" "p99 (us)" "host B/req";
  List.iter
    (fun clients ->
       let rps, p50, p99, alloc = run_level ~clients in
       Printf.printf "%-8d %10.0f %12.0f %12.0f %14.0f\n"
         clients rps p50 p99 alloc;
       let name n = Printf.sprintf "%s clients=%d" n clients in
       Report.metric ~unit_:"req/s" ~name:(name "req/s") rps;
       Report.metric ~name:(name "p50") p50;
       Report.metric ~name:(name "p99") p99;
       Report.host ~unit_:"B" ~name:(name "host alloc/req") alloc)
    [ 1; 2; 4; 8; 16 ];
  Report.note
    "  Latency grows with queueing at the single-CPU server while\n\
    \  throughput saturates: the closed loop keeps exactly N requests\n\
    \  in flight.\n";
  alloc_comparison ()

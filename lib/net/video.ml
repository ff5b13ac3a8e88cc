module Machine = Spin_machine.Machine
module Clock = Spin_machine.Clock
module Dispatcher = Spin_core.Dispatcher
module Sched = Spin_sched.Sched
module Simple_fs = Spin_fs.Simple_fs
module File_cache = Spin_fs.File_cache

type server = {
  host : Host.t;
  fs : Simple_fs.t;
  cache : File_cache.t;
  netif : Netif.t;
  port : int;
  send_packet : (Bytes.t * int, int) Dispatcher.event;
  mutable clients : Ip.addr list;
  mutable nframes : int;
  mutable frame_bytes : int;
  mutable packets : int;
  mutable frames : int;
  mutable seq : int;
  mutable busy : int;              (* server CPU cycles spent streaming *)
}

let frame_name i = Printf.sprintf "frame%03d" i

(* The sender's default implementation: one transmission, no client
   fan-out (a handler replaces the fan-out). *)
let default_send _ = 0

(* The multicast extension: one raise fans out to every client at the
   driver level. The UDP payload is encoded once; per client only the
   addressing is patched before the driver transmit. Parameterized by
   installer (and per-client patch cost) so a hot swap can retire one
   codec generation's handler and install the next under the
   replacement domain's name. *)
let install_mcast ?patch_cost server ~installer =
  let clock = server.host.Host.machine.Machine.clock in
  let patch_cost =
    match patch_cost with
    | Some c -> c
    | None -> (Clock.cost clock).Spin_machine.Cost.mcast_patch in
  Dispatcher.ok_exn ~site:"Video.install_mcast" @@
  Dispatcher.install server.send_packet ~installer
    (fun (payload, _seq) ->
      let datagram =
        Udp.encode_datagram ~src_port:server.port ~dst_port:server.port
          payload in
      let src = server.host.Host.addr in
      let frames =
        List.map
          (fun client ->
            (* Header patch (tiny): each client's frame copies the
               encoded datagram once and gets its own addressing. *)
            Clock.charge clock patch_cost;
            Ip.encode_frame ~src ~dst:client ~proto:Ip.proto_udp datagram)
          server.clients in
      (* One driver doorbell for the whole fan-out. *)
      Netif.transmit_burst server.netif frames)

let create_server ?(mcast = true) host ~fs ~netif ~port =
  let cache = File_cache.create ~phys:host.Host.phys fs in
  let server =
    { host; fs; cache; netif; port;
      send_packet =
        Dispatcher.declare host.Host.dispatcher ~name:"Video.SendPacket"
          ~owner:"VideoSend" ~combine:( + ) default_send;
      clients = []; nframes = 0; frame_bytes = 0;
      packets = 0; frames = 0; seq = 0; busy = 0 } in
  if mcast then ignore (install_mcast server ~installer:"VideoMcast");
  server

let load_frames server ~count ~frame_bytes =
  for i = 0 to count - 1 do
    let name = frame_name i in
    if not (Simple_fs.exists server.fs ~name) then begin
      Simple_fs.create server.fs ~name;
      Simple_fs.write server.fs ~name
        (Bytes.make frame_bytes (Char.chr (65 + (i mod 26))))
    end
  done;
  server.nframes <- count;
  server.frame_bytes <- frame_bytes

let add_client server addr = server.clients <- addr :: server.clients

let client_count server = List.length server.clients

let send_packet_event server = server.send_packet

let packets_sent server = server.packets

let frames_streamed server = server.frames

(* Packetize one frame: UDP/IP-style header work charged once per
   packet, then the SendPacket event multicasts it. *)
let stream_frame server frame_index =
  let mtu = Netif.mtu server.netif - 40 in
  let name = frame_name (frame_index mod max server.nframes 1) in
  (* Frames come through the server's own object cache: after the
     first pass over the clip the stream runs from memory. *)
  let data =
    match File_cache.fetch server.cache ~name with
    | Some data -> data
    | None -> Bytes.create server.frame_bytes in
  server.frames <- server.frames + 1;
  let len = Bytes.length data in
  let clock = server.host.Host.machine.Machine.clock in
  let c = Clock.cost clock in
  let rec packets off =
    if off < len then begin
      let chunk = min mtu (len - off) in
      (* Protocol-graph traversal, once per packet. *)
      Clock.charge clock Spin_machine.Cost.(c.ip_process + c.udp_process);
      server.seq <- server.seq + 1;
      let payload = Bytes.sub data off chunk in
      let delivered =
        Dispatcher.raise_event server.send_packet (payload, server.seq) in
      server.packets <- server.packets + delivered;
      packets (off + chunk)
    end in
  packets 0

let stream server ~fps ~duration_s =
  let sched = server.host.Host.sched in
  let clock = server.host.Host.machine.Machine.clock in
  let interval_us = 1_000_000. /. float_of_int fps in
  let total = int_of_float (duration_s *. float_of_int fps) in
  for i = 0 to total - 1 do
    server.busy <- server.busy + Clock.stamp clock (fun () ->
      stream_frame server i);
    Sched.sleep_us sched interval_us
  done

let server_busy_cycles server = server.busy

type client = {
  mutable displayed : int;
  mutable displayed_bytes : int;
}

let create_client host ~port =
  let c = { displayed = 0; displayed_bytes = 0 } in
  ignore
    (Udp.listen host.Host.udp ~port ~installer:"VideoClient" (fun d ->
       let clock = host.Host.machine.Machine.clock in
       let cost = Clock.cost clock in
       let words = (Pkt.length d.Udp.payload + 7) / 8 in
       (* Decompress each 8 bytes, then copy into the frame buffer. *)
       Clock.charge clock (words * cost.Spin_machine.Cost.video_decompress);
       Clock.charge clock (words * cost.Spin_machine.Cost.copy_per_word);
       c.displayed <- c.displayed + 1;
       c.displayed_bytes <- c.displayed_bytes + Pkt.length d.Udp.payload));
  c

let frames_displayed c = c.displayed

let bytes_displayed c = c.displayed_bytes

module Machine = Spin_machine.Machine
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Trace = Spin_machine.Trace
module Sim = Spin_machine.Sim
module Sched = Spin_sched.Sched
module Strand = Spin_sched.Strand
module Dispatcher = Spin_core.Dispatcher

let header_bytes = 16

let flag_syn = 1
let flag_ack = 2
let flag_fin = 4
let flag_rst = 8

type state =
  | Closed
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait
  | Close_wait
  | Last_ack
  | Time_wait

let state_to_string = function
  | Closed -> "CLOSED"
  | Syn_sent -> "SYN_SENT"
  | Syn_received -> "SYN_RCVD"
  | Established -> "ESTABLISHED"
  | Fin_wait -> "FIN_WAIT"
  | Close_wait -> "CLOSE_WAIT"
  | Last_ack -> "LAST_ACK"
  | Time_wait -> "TIME_WAIT"

(* The send stream is a chain of runs, oldest first: one per [send]
   call and one per SYN or FIN. A segment is never stored: its
   sequence number, position and length are computed from its run
   ([seg_span], [emit_segment]). A data run's buffer holds its bytes in
   MSS-sized chunks, each behind a private [Pkt.default_headroom] gap
   that the segment's headers are pushed into. *)
type run = {
  r_seq : int;                      (* its first byte's, or the SYN/FIN's *)
  r_len : int;                      (* data bytes; 0 for a SYN or FIN *)
  r_flags : int;                    (* 0, [flag_syn] or [flag_fin] *)
  r_buf : Bytes.t;
  mutable r_next : run;             (* [no_run] until one is appended *)
}

let rec no_run =
  { r_seq = 0; r_len = 0; r_flags = 0; r_buf = Bytes.empty; r_next = no_run }

(* An engine-owned transmit frame: re-aimed at each routed segment, or
   at its own header buffer for a segment without data. *)
type frame = {
  f_pkt : Pkt.t;
  f_hdr : Bytes.t;
}

(* A connection's identity: (local port, remote address, remote
   port). A stored key is the connection's own and never changes; the
   engine's [probe] is the one key that lookups overwrite. *)
type key = {
  mutable k_lport : int;
  mutable k_raddr : Ip.addr;
  mutable k_rport : int;
}

module Conns = Hashtbl.Make (struct
  type t = key
  let equal a b =
    a.k_lport = b.k_lport && a.k_raddr = b.k_raddr && a.k_rport = b.k_rport
  let hash k = (((k.k_lport * 65599) + k.k_rport) * 65599) + k.k_raddr
end)

type stats = {
  mutable segments_sent : int;
  mutable segments_received : int;
  mutable retransmits : int;
  mutable resets : int;
  mutable accepted : int;
}

type conn = {
  key : key;
  l_port : int;
  r_addr : Ip.addr;
  r_port : int;
  mutable st : state;
  mutable snd_nxt : int;
  mutable snd_una : int;                 (* oldest unacknowledged segment's *)
  mutable rcv_nxt : int;
  mutable in_flight : int;               (* segments from snd_una to snd_nxt *)
  mutable una_run : run;                 (* holds snd_una, or [no_run] *)
  mutable nxt_run : run;                 (* holds snd_nxt, or [no_run] *)
  mutable last_run : run;
  mutable rx_cb : (Bytes.t -> unit) option;
  rx_buf : Buffer.t;
  mutable reader : Strand.t option;
  mutable opener : Strand.t option;
  mutable retries : int;
  (* The two timers and their actions, all built once, in [new_conn]. *)
  rto : Sim.timer;
  mutable rto_fire : unit -> unit;
  mutable fin_pending : bool;            (* close requested, FIN not sent *)
  delayed_ack : Sim.timer;
  mutable ack_fire : unit -> unit;
  mutable unacked_rx : int;              (* data segments since last ack *)
}

and engine = {
  machine : Machine.t;
  sched : Sched.t;
  ip : Ip.t;
  event : (Ip.packet, unit) Dispatcher.event;
  mutable demux : (Ip.packet, unit) Dispatcher.handler option;
  conns : conn Conns.t;
  probe : key;                           (* reused by every lookup *)
  listeners : (int, conn -> unit) Hashtbl.t;
  mutable next_port : int;
  stats : stats;
  mutable frames : frame array;          (* a stack: [depth] in use *)
  mutable depth : int;
}

type t = engine

let window_segments = 8
let mss = 1024
let rto_us = 200_000.
let delayed_ack_us = 10_000.
let max_retries = 8

(* ------------------------------------------------------------------ *)
(* Wire format                                                        *)
(* ------------------------------------------------------------------ *)

(* Write a segment's header in place, into the headroom in front of
   [pkt]'s data: a send-buffer chunk's private gap, or a frame's own
   header buffer. IP and the link push theirs in front of it. *)
let encode pkt ~sport ~dport ~seq ~ack ~flags =
  let dlen = Pkt.length pkt in
  let hoff = Pkt.reserve pkt header_bytes in
  let hbuf = Pkt.buffer pkt in
  Bytes.set_uint16_le hbuf hoff sport;
  Bytes.set_uint16_le hbuf (hoff + 2) dport;
  Bytes.set_int32_le hbuf (hoff + 4) (Int32.of_int seq);
  Bytes.set_int32_le hbuf (hoff + 8) (Int32.of_int ack);
  Bytes.set_uint8 hbuf (hoff + 12) flags;
  Bytes.set_uint16_le hbuf (hoff + 14) dlen

(* A received segment is read where it lies: the header fields at
   their offsets in the IP payload, the data as the [data_len] bytes
   after the header. Nothing is decoded into a record and the payload
   is never trimmed — the IP payload is shared with every other
   handler of the IP event (Forward's guard reads the ports at offset
   0). [well_formed] is checked before the TCP event is raised, so
   the readers below stay in bounds. *)
let sport b = Pkt.get_u16_le b 0
let dport b = Pkt.get_u16_le b 2
let seq_of b = Pkt.get_u32_le b 4
let ack_of b = Pkt.get_u32_le b 8
let flags_of b = Pkt.get_u8 b 12
let data_len b = Pkt.get_u16_le b 14

let well_formed b =
  Pkt.length b >= header_bytes
  && Pkt.length b >= header_bytes + data_len b

(* ------------------------------------------------------------------ *)
(* Transmission                                                       *)
(* ------------------------------------------------------------------ *)

let charge t =
  let clock = t.machine.Machine.clock in
  Clock.charge clock (Clock.cost clock).Cost.tcp_process

let flags_to_string flags =
  String.concat ""
    (List.filter_map
       (fun (bit, c) -> if flags land bit <> 0 then Some c else None)
       [ (flag_syn, "S"); (flag_ack, "A"); (flag_fin, "F"); (flag_rst, "R") ])

let new_frame () =
  let f_pkt = Pkt.alloc 0 in
  { f_pkt; f_hdr = Pkt.buffer f_pkt }

(* Frame a segment and hand it to IP. A routed segment goes out in an
   engine frame aimed at its data, which the NIC copies onto the wire
   before [Ip.send] returns, so the frame is free again then. Timers
   fire inside the charges on the way down and may emit meanwhile, so
   the frames are a stack, one per nesting depth. A loopback receiver
   gets no device copy and may keep what it is handed, so it gets a
   fresh view ({!Pkt}'s aliasing rule). *)
let output t ~dst ~sport ~dport ~seq ~ack ~flags buf ~pos ~len =
  if Ip.is_local t.ip dst then begin
    let pkt =
      if len = 0 then Pkt.alloc 0
      else (let p = Pkt.empty () in Pkt.aim p buf ~off:pos ~len; p) in
    encode pkt ~sport ~dport ~seq ~ack ~flags;
    ignore (Ip.send t.ip ~dst ~proto:Ip.proto_tcp pkt)
  end else begin
    let d = t.depth in
    if d = Array.length t.frames then
      t.frames <-
        Array.append t.frames (Array.init (d + 1) (fun _ -> new_frame ()));
    let f = t.frames.(d) in
    t.depth <- d + 1;
    if len = 0 then
      Pkt.aim f.f_pkt f.f_hdr ~off:(Bytes.length f.f_hdr) ~len:0
    else Pkt.aim f.f_pkt buf ~off:pos ~len;
    encode f.f_pkt ~sport ~dport ~seq ~ack ~flags;
    match Ip.send t.ip ~dst ~proto:Ip.proto_tcp f.f_pkt with
    | (_ : bool) -> t.depth <- d
    | exception e -> t.depth <- d; raise e
  end

(* [len] data bytes from [pos] in [buf]; a segment without data has
   [len = 0]. *)
let emit t conn ~seq ~flags buf ~pos ~len =
  charge t;
  Sim.cancel t.machine.Machine.sim conn.delayed_ack;
  conn.unacked_rx <- 0;
  t.stats.segments_sent <- t.stats.segments_sent + 1;
  (* Everything carries an ACK except the very first SYN (nothing has
     been received yet, so there is nothing to acknowledge). *)
  let flags =
    if flags land flag_syn <> 0 && conn.rcv_nxt = 0 then flags
    else flags lor flag_ack in
  let tr = Trace.of_clock t.machine.Machine.clock in
  if Trace.on tr then
    Trace.instant tr ~cat:"tcp" ~name:"tx"
      ~args:[ ("seq", string_of_int seq);
              ("flags", flags_to_string flags);
              ("bytes", string_of_int len) ] ();
  (* The NIC's copy of the frame onto the wire, a true copy point. *)
  if len > 0 then
    Clock.charge t.machine.Machine.clock
      (Cost.copy_cycles (Clock.cost t.machine.Machine.clock) ~bytes:len);
  output t ~dst:conn.r_addr ~sport:conn.l_port ~dport:conn.r_port ~seq
    ~ack:conn.rcv_nxt ~flags buf ~pos ~len

let send_ack t conn =
  emit t conn ~seq:conn.snd_nxt ~flags:0 Bytes.empty ~pos:0 ~len:0

(* A run's sequence space ends after its data, or after its SYN or
   FIN, which counts one. *)
let run_end r = r.r_seq + (if r.r_flags = 0 then r.r_len else 1)

(* The data bytes of the segment at [seq] in data run [r]. *)
let seg_data r seq =
  let rest = r.r_len - (seq - r.r_seq) in
  if rest < mss then rest else mss

let seg_span r seq = if r.r_flags = 0 then seg_data r seq else 1

(* The run holding [seq], the end of a segment of run [r]. *)
let run_after r seq = if seq = run_end r then r.r_next else r

(* Segments start at chunk boundaries; chunk [i] sits behind [i + 1]
   gaps. *)
let emit_segment t conn r seq =
  if r.r_flags = 0 then begin
    let gap = Pkt.default_headroom in
    let pos = ((seq - r.r_seq) / mss * (gap + mss)) + gap in
    emit t conn ~seq ~flags:0 r.r_buf ~pos ~len:(seg_data r seq)
  end else emit t conn ~seq ~flags:r.r_flags Bytes.empty ~pos:0 ~len:0

let append conn r =
  if conn.last_run != no_run then conn.last_run.r_next <- r;
  conn.last_run <- r;
  if conn.una_run == no_run then conn.una_run <- r;
  if conn.nxt_run == no_run then conn.nxt_run <- r

let arm_rto t conn =
  let sim = t.machine.Machine.sim in
  if conn.in_flight = 0 then Sim.cancel sim conn.rto
  else Sim.arm_us sim conn.rto rto_us conn.rto_fire

(* Resend the segments from [seq] in run [r] up to [stop]. *)
let rec resend t conn r seq stop =
  if seq < stop then begin
    t.stats.retransmits <- t.stats.retransmits + 1;
    let tr = Trace.of_clock t.machine.Machine.clock in
    if Trace.on tr then
      Trace.instant tr ~cat:"tcp" ~name:"retransmit"
        ~args:[ ("seq", string_of_int seq);
                ("retries", string_of_int conn.retries) ] ();
    emit_segment t conn r seq;
    let next = seq + seg_span r seq in
    resend t conn (run_after r next) next stop
  end

let rec on_timeout t conn =
  if conn.in_flight > 0 && conn.st <> Closed then begin
    conn.retries <- conn.retries + 1;
    if conn.retries > max_retries then begin
      teardown t conn
    end else begin
      (* Go-Back-N: resend everything outstanding. A resend can take
         an ACK that moves the head, so the walk runs between where
         the head and [snd_nxt] were when it began. *)
      resend t conn conn.una_run conn.snd_una conn.snd_nxt;
      arm_rto t conn
    end
  end

and teardown t conn =
  Sim.cancel t.machine.Machine.sim conn.rto;
  Sim.cancel t.machine.Machine.sim conn.delayed_ack;
  conn.st <- Closed;
  Conns.remove t.conns conn.key;
  (* Wake anything blocked on the connection. *)
  (match conn.reader with
   | Some s -> conn.reader <- None; Sched.unblock t.sched s
   | None -> ());
  (match conn.opener with
   | Some s -> conn.opener <- None; Sched.unblock t.sched s
   | None -> ())

(* Send the segment at [snd_nxt]. *)
let transmit_next t conn =
  let r = conn.nxt_run and seq = conn.snd_nxt in
  conn.snd_nxt <- seq + seg_span r seq;
  conn.nxt_run <- run_after r conn.snd_nxt;
  conn.in_flight <- conn.in_flight + 1;
  emit_segment t conn r seq;
  if not (Sim.scheduled conn.rto) then arm_rto t conn

(* A SYN or FIN is a run of its own, sent at once. *)
let transmit_control t conn flags =
  append conn
    { r_seq = conn.snd_nxt; r_len = 0; r_flags = flags; r_buf = Bytes.empty;
      r_next = no_run };
  transmit_next t conn

(* Push queued data into the window. *)
let rec fill_window t conn =
  if conn.in_flight < window_segments then
    if conn.nxt_run != no_run then begin
      transmit_next t conn;
      fill_window t conn
    end else if conn.fin_pending then begin
      conn.fin_pending <- false;
      transmit_control t conn flag_fin;
      conn.st <- (match conn.st with Close_wait -> Last_ack | _ -> Fin_wait)
    end

let new_conn t ~l_port ~r_addr ~r_port ~st ~rcv_nxt =
  let conn = {
    l_port; r_addr; r_port; st;
    snd_nxt = 0; snd_una = 0; rcv_nxt;
    in_flight = 0; una_run = no_run; nxt_run = no_run; last_run = no_run;
    rx_cb = None; rx_buf = Buffer.create 1;
    reader = None; opener = None;
    retries = 0; rto = Sim.timer t.machine.Machine.sim; fin_pending = false;
    key = { k_lport = l_port; k_raddr = r_addr; k_rport = r_port };
    rto_fire = ignore; delayed_ack = Sim.timer t.machine.Machine.sim;
    ack_fire = ignore; unacked_rx = 0;
  } in
  conn.rto_fire <- (fun () -> on_timeout t conn);
  conn.ack_fire <- (fun () -> if conn.st <> Closed then send_ack t conn);
  Conns.replace t.conns conn.key conn;
  conn

(* The connection a segment from [src] belongs to; raises [Not_found].
   The probe is rewritten by every lookup, so it is read here only. *)
let find_conn t ~l_port ~r_addr ~r_port =
  let k = t.probe in
  k.k_lport <- l_port;
  k.k_raddr <- r_addr;
  k.k_rport <- r_port;
  Conns.find t.conns k

(* ------------------------------------------------------------------ *)
(* Receive path                                                       *)
(* ------------------------------------------------------------------ *)

(* The [len] data bytes of segment [b], straight out of the frame. *)
let deliver_data t conn b len =
  if len > 0 then begin
    (* Application hand-off — the receive path's one true copy: out of
       the NIC frame into the app's callback bytes or the reassembly
       buffer. *)
    Clock.charge t.machine.Machine.clock
      (Cost.copy_cycles (Clock.cost t.machine.Machine.clock) ~bytes:len);
    let pos = Pkt.headroom b + header_bytes in
    match conn.rx_cb with
    | Some cb -> cb (Bytes.sub (Pkt.buffer b) pos len)
    | None ->
      Buffer.add_subbytes conn.rx_buf (Pkt.buffer b) pos len;
      (match conn.reader with
       | Some s -> conn.reader <- None; Sched.unblock t.sched s
       | None -> ())
  end

(* Drops the segments [ack] covers from the head; whether it covered
   any. *)
let rec drop_acked conn ack advanced =
  if conn.in_flight = 0 then advanced
  else begin
    let r = conn.una_run in
    let next = conn.snd_una + seg_span r conn.snd_una in
    if next > ack then advanced
    else begin
      conn.snd_una <- next;
      conn.una_run <- run_after r next;
      conn.in_flight <- conn.in_flight - 1;
      drop_acked conn ack true
    end
  end

let handle_ack t conn ack =
  if drop_acked conn ack false then begin
    conn.retries <- 0;
    arm_rto t conn;
    fill_window t conn
  end

let handle_established t conn b =
  let flags = flags_of b in
  if flags land flag_rst <> 0 then teardown t conn
  else begin
    handle_ack t conn (ack_of b);
    let expected = conn.rcv_nxt in
    let fin = flags land flag_fin <> 0 in
    let seq = seq_of b and len = data_len b in
    if seq = expected then begin
      conn.rcv_nxt <- expected + len + (if fin then 1 else 0);
      let snd_before = conn.snd_nxt in
      deliver_data t conn b len;
      if fin then begin
        (match conn.st with
         | Established -> conn.st <- Close_wait
         | Fin_wait -> conn.st <- Time_wait
         | _ -> ());
        (* Wake a blocked reader: EOF. *)
        (match conn.reader with
         | Some s -> conn.reader <- None; Sched.unblock t.sched s
         | None -> ())
      end;
      (* If the receive handler transmitted (an echo, a response), its
         segment already carried the acknowledgement. Otherwise ack
         every second data segment immediately and delay single acks,
         hoping to piggyback them on upcoming data (standard delayed
         acknowledgements). FINs are acknowledged at once. *)
      if conn.snd_nxt = snd_before then begin
        if fin then send_ack t conn
        else if len > 0 then begin
          conn.unacked_rx <- conn.unacked_rx + 1;
          if conn.unacked_rx >= 2 then send_ack t conn
          else if not (Sim.scheduled conn.delayed_ack) then
            Sim.arm_us t.machine.Machine.sim conn.delayed_ack delayed_ack_us
              conn.ack_fire
        end
      end
    end else if seq < expected && (len > 0 || fin) then
      (* Duplicate: re-ack. *)
      send_ack t conn
    (* Out-of-order beyond rcv_nxt: dropped (Go-Back-N). *);
    (match conn.st with
     | Last_ack when conn.in_flight = 0 -> teardown t conn
     | Time_wait when conn.in_flight = 0 -> teardown t conn
     | _ -> ())
  end

(* [b] is the segment, the IP payload of a packet from [src]. *)
let segment_arrived t b src =
  let flags = flags_of b in
  match find_conn t ~l_port:(dport b) ~r_addr:src ~r_port:(sport b) with
  | conn ->
    (match conn.st with
     | Syn_sent ->
       if flags land flag_rst <> 0 then teardown t conn
       else if flags land flag_syn <> 0 then begin
         conn.rcv_nxt <- seq_of b + 1;
         handle_ack t conn (ack_of b);
         conn.st <- Established;
         send_ack t conn;
         (match conn.opener with
          | Some s -> conn.opener <- None; Sched.unblock t.sched s
          | None -> ())
       end
     | Syn_received ->
       if flags land flag_rst <> 0 then teardown t conn
       else begin
         handle_ack t conn (ack_of b);
         if conn.snd_una > 0 then begin
           conn.st <- Established;
           t.stats.accepted <- t.stats.accepted + 1;
           match Hashtbl.find_opt t.listeners conn.l_port with
           | Some on_accept -> on_accept conn
           | None -> ()
         end;
         if data_len b > 0 then handle_established t conn b
       end
     | Established | Fin_wait | Close_wait | Last_ack | Time_wait ->
       handle_established t conn b
     | Closed -> ())
  | exception Not_found ->
    (* New connection to a listener? *)
    if flags land flag_syn <> 0 && flags land flag_ack = 0
       && Hashtbl.mem t.listeners (dport b) then begin
      let conn =
        new_conn t ~l_port:(dport b) ~r_addr:src ~r_port:(sport b)
          ~st:Syn_received ~rcv_nxt:(seq_of b + 1) in
      transmit_control t conn flag_syn
    end else if flags land flag_rst = 0 then begin
      (* No home for it: RST. *)
      t.stats.resets <- t.stats.resets + 1;
      charge t;
      t.stats.segments_sent <- t.stats.segments_sent + 1;
      output t ~dst:src ~sport:(dport b) ~dport:(sport b) ~seq:(ack_of b)
        ~ack:(seq_of b) ~flags:flag_rst Bytes.empty ~pos:0 ~len:0
    end

let handle_segment t (pkt : Ip.packet) =
  let b = pkt.Ip.payload in
  t.stats.segments_received <- t.stats.segments_received + 1;
  charge t;
  let tr = Trace.of_clock t.machine.Machine.clock in
  let sp =
    if Trace.on tr then
      Trace.begin_span tr ~cat:"tcp" ~name:"rx_segment"
        ~args:[ ("seq", string_of_int (seq_of b));
                ("flags", flags_to_string (flags_of b));
                ("dport", string_of_int (dport b));
                ("bytes", string_of_int (data_len b)) ] ()
    else Trace.null_span in
  match segment_arrived t b pkt.Ip.src with
  | () -> Trace.end_span tr sp
  | exception e -> Trace.end_span tr sp; raise e

(* ------------------------------------------------------------------ *)
(* Public interface                                                   *)
(* ------------------------------------------------------------------ *)

let create machine sched dispatcher ip =
  let event =
    Dispatcher.declare dispatcher ~name:"TCP.PacketArrived" ~owner:"TCP"
      (fun (_ : Ip.packet) -> ()) in
  let t = {
    machine; sched; ip; event; demux = None;
    conns = Conns.create 64;
    probe = { k_lport = 0; k_raddr = 0; k_rport = 0 };
    listeners = Hashtbl.create 16;
    next_port = 32768;
    frames = Array.init 2 (fun _ -> new_frame ()); depth = 0;
    stats =
      { segments_sent = 0; segments_received = 0; retransmits = 0;
        resets = 0; accepted = 0 };
  } in
  ignore
    (Ip.attach ip ~proto:Ip.proto_tcp ~installer:"TCP"
       (fun pkt ->
         if well_formed pkt.Ip.payload then
           Dispatcher.raise_default t.event () pkt));
  t.demux <-
    Some
      (Dispatcher.ok_exn ~site:"Tcp.create"
         (Dispatcher.install t.event ~installer:"TCP" (handle_segment t)));
  t

(* Another extension (e.g. Forward) claims some segments: stack a
   guard on the engine's own handler so it never sees them — the
   paper's "a handler can stack additional guards on an event". *)
let add_demux_filter t claimed =
  match t.demux with
  | Some h ->
    Dispatcher.add_guard h
      (fun (pkt : Ip.packet) ->
        let b = pkt.Ip.payload in
        not (claimed ~dport:(dport b)))
  | None -> ()

let listen t ~port ~on_accept =
  if Hashtbl.mem t.listeners port then
    invalid_arg "Tcp.listen: port in use";
  Hashtbl.replace t.listeners port on_accept

let connect t ~dst ~dst_port =
  let l_port = t.next_port in
  t.next_port <- t.next_port + 1;
  let conn =
    new_conn t ~l_port ~r_addr:dst ~r_port:dst_port ~st:Syn_sent ~rcv_nxt:0 in
  transmit_control t conn flag_syn;
  (* Loopback handshakes complete synchronously inside the transmit;
     wakeups may be spurious, so wait until the state settles. *)
  while conn.st = Syn_sent do
    conn.opener <- (Sched.self t.sched).Strand.me;
    Sched.block_current t.sched;
    conn.opener <- None
  done;
  if conn.st = Established then Some conn else None

(* Application hand-off: one charged copy of [data] into a run's
   buffer of MSS-sized chunks, each behind a private
   [Pkt.default_headroom] gap that [encode], IP and the link push their
   headers into. The window then sends the run's segments. *)
let send t conn data =
  let len = Bytes.length data in
  if len > 0 then begin
    Clock.charge t.machine.Machine.clock
      (Cost.copy_cycles (Clock.cost t.machine.Machine.clock) ~bytes:len);
    if conn.st = Established || conn.st = Close_wait then begin
      let gap = Pkt.default_headroom in
      let n = (len + mss - 1) / mss in
      let buf = Bytes.create (len + (n * gap)) in
      for i = 0 to n - 1 do
        Bytes.blit data (i * mss) buf ((i * (gap + mss)) + gap)
          (min mss (len - (i * mss)))
      done;
      append conn
        { r_seq = run_end conn.last_run; r_len = len; r_flags = 0; r_buf = buf;
          r_next = no_run };
      fill_window t conn
    end
  end

let on_receive conn cb =
  (* Drain anything buffered before switching to callback mode. *)
  if Buffer.length conn.rx_buf > 0 then begin
    cb (Buffer.to_bytes conn.rx_buf);
    Buffer.clear conn.rx_buf
  end;
  conn.rx_cb <- Some cb

let at_eof conn =
  conn.st = Closed || conn.st = Close_wait || conn.st = Time_wait

let read t conn =
  while Buffer.length conn.rx_buf = 0 && not (at_eof conn) do
    conn.reader <- (Sched.self t.sched).Strand.me;
    Sched.block_current t.sched;
    conn.reader <- None
  done;
  let data = Buffer.to_bytes conn.rx_buf in
  Buffer.clear conn.rx_buf;
  data

let close t conn =
  match conn.st with
  | Established | Close_wait | Syn_received ->
    conn.fin_pending <- true;
    fill_window t conn
  | Syn_sent -> teardown t conn
  | Fin_wait | Last_ack | Time_wait | Closed -> ()

let state conn = conn.st

let stats t = { t.stats with segments_sent = t.stats.segments_sent }

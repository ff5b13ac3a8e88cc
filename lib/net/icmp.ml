type t = {
  ip : Ip.t;
  mutable waiting : (int * (unit -> unit)) list;   (* seq -> callback *)
}

let type_echo_request = 8
let type_echo_reply = 0
let header = 4                            (* type, code, seq u16 *)

let encode ~typ ~seq payload =
  let pkt = Pkt.of_payload payload in
  let off = Pkt.reserve pkt header in
  let buf = Pkt.buffer pkt in
  Bytes.set_uint8 buf off typ;
  Bytes.set_uint8 buf (off + 1) 0;
  Bytes.set_uint16_le buf (off + 2) seq;
  pkt

let input t (pkt : Ip.packet) =
  let b = pkt.Ip.payload in
  if Pkt.length b >= header then begin
    let typ = Pkt.get_u8 b 0 in
    let seq = Pkt.get_u16_le b 2 in
    if typ = type_echo_request then begin
      (* In-place echo: flip the type byte and send the same buffer
         back — the consumed IP/link headers in its headroom are
         overwritten by the reply's. No payload byte moves. *)
      Pkt.set_u8 b 0 type_echo_reply;
      ignore (Ip.send t.ip ~dst:pkt.Ip.src ~proto:Ip.proto_icmp b)
    end else if typ = type_echo_reply then begin
      match List.assoc_opt seq t.waiting with
      | Some k ->
        t.waiting <- List.remove_assoc seq t.waiting;
        k ()
      | None -> ()
    end
  end

let create ip =
  let t = { ip; waiting = [] } in
  ignore (Ip.attach ip ~proto:Ip.proto_icmp ~installer:"ICMP" (input t));
  t

let ping t ~dst ~seq k =
  t.waiting <- (seq, k) :: t.waiting;
  let sent =
    Ip.send t.ip ~dst ~proto:Ip.proto_icmp
      (encode ~typ:type_echo_request ~seq (Bytes.create 16)) in
  if not sent then t.waiting <- List.remove_assoc seq t.waiting;
  sent

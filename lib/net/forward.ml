module Dispatcher = Spin_core.Dispatcher

type t = {
  ip : Ip.t;
  proto : int;
  port : int;
  secondary : Ip.addr;
  flows : (int, Ip.addr) Hashtbl.t;       (* client source port -> client *)
  mutable forwarded : int;
}

let ports payload =
  if Pkt.length payload >= 4 then
    Some (Pkt.get_u16_le payload 0, Pkt.get_u16_le payload 2)
  else None

let interesting t (pkt : Ip.packet) =
  pkt.Ip.proto = t.proto
  && (match ports pkt.Ip.payload with
      | Some (_, dport) -> dport = t.port || Hashtbl.mem t.flows dport
      | None -> false)

let reroute t (pkt : Ip.packet) =
  match ports pkt.Ip.payload with
  | None -> ()
  | Some (sport, dport) ->
    if dport = t.port && pkt.Ip.src <> t.secondary then begin
      (* Client -> server leg: remember the flow, masquerade as us. *)
      Hashtbl.replace t.flows sport pkt.Ip.src;
      t.forwarded <- t.forwarded + 1;
      ignore (Ip.send t.ip ~src:(Ip.local_addr t.ip) ~dst:t.secondary
                ~proto:t.proto pkt.Ip.payload)
    end else
      match Hashtbl.find_opt t.flows dport with
      | Some client when pkt.Ip.src = t.secondary ->
        (* Server -> client leg. *)
        t.forwarded <- t.forwarded + 1;
        ignore (Ip.send t.ip ~src:(Ip.local_addr t.ip) ~dst:client
                  ~proto:t.proto pkt.Ip.payload)
      | Some _ | None -> ()

let create ?tcp ip ~proto ~port ~to_ =
  let t = {
    ip; proto; port; secondary = to_;
    flows = Hashtbl.create 16;
    forwarded = 0;
  } in
  ignore
    (Dispatcher.ok_exn ~site:"Forward.create"
       (Dispatcher.install (Ip.packet_arrived ip) ~installer:"Forward"
          ~spec:(Dispatcher.Handler_spec.guarded (interesting t))
          (reroute t)));
  (match tcp with
   | Some engine ->
     Tcp.add_demux_filter engine (fun ~dport ->
       dport = t.port || Hashtbl.mem t.flows dport)
   | None -> ());
  t

let packets_forwarded t = t.forwarded

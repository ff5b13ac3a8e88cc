module Dispatcher = Spin_core.Dispatcher

let is_network_event name =
  List.exists
    (fun prefix -> String.length name >= String.length prefix
                   && String.sub name 0 (String.length prefix) = prefix)
    [ "Ether."; "ATM."; "T3."; "IP."; "UDP."; "TCP."; "ICMP."; "HTTP.";
      "Video."; "A.M."; "Forward." ]

let network_events dispatcher =
  Dispatcher.topology dispatcher
  |> List.filter_map (fun (name, _owner, handlers) ->
    if is_network_event name then Some (name, handlers) else None)

let render dispatcher =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Protocol graph (events -> handlers), from live registrations:\n";
  List.iter
    (fun (name, handlers) ->
      Buffer.add_string buf (Printf.sprintf "  (%s)\n" name);
      List.iter
        (fun h -> Buffer.add_string buf (Printf.sprintf "    |--> [%s]\n" h))
        handlers)
    (network_events dispatcher);
  Buffer.contents buf

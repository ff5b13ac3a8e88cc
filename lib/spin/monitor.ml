module Dispatcher = Spin_core.Dispatcher
module Clock = Spin_machine.Clock
module Trace = Spin_machine.Trace

type t = {
  clock : Clock.t;
  mutable counters : (string * int ref) list;
  mutable gauges : (string * (unit -> int)) list;
  started_at : int;
}

let create clock =
  { clock; counters = []; gauges = []; started_at = Clock.now clock }

let counter t name =
  match List.assoc_opt name t.counters with
  | Some c -> c
  | None ->
    let c = ref 0 in
    t.counters <- t.counters @ [ (name, c) ];
    c

(* Counting happens in a guard that always declines, so the monitor
   works on events of any result type and never contributes a result
   to the raiser. *)
let watch ?(interest = fun _ -> true) t event =
  let c = counter t (Dispatcher.event_name event) in
  ignore
    (Dispatcher.install event ~installer:"Monitor"
       ~spec:
         (Dispatcher.Handler_spec.guarded (fun arg ->
              if interest arg then incr c;
              false))
       (fun _ -> assert false))

(* Gauges sample state owned elsewhere (device drop counters, the
   supervisor's fault ledger) at report time — overload and failure
   are visible in the same report as event rates, instead of silent.
   Which samples describe a subsystem is the subsystem's call: each
   exports its own [gauges] list. *)
let watch_gauges t gauges = t.gauges <- t.gauges @ gauges

let counts t = List.map (fun (name, c) -> (name, !c)) t.counters

let gauges t = List.map (fun (name, sample) -> (name, sample ())) t.gauges

let report t =
  let elapsed_us =
    Spin_machine.Cost.cycles_to_us (Clock.cost t.clock)
      (Clock.now t.clock - t.started_at) in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "event activity over %.0f us:\n" elapsed_us);
  List.iter
    (fun (name, c) ->
      let rate =
        if elapsed_us > 0. then float_of_int !c /. (elapsed_us /. 1e6)
        else 0. in
      Buffer.add_string buf
        (Printf.sprintf "  %-28s %8d  (%.0f/s)\n" name !c rate))
    t.counters;
  (match t.gauges with
   | [] -> ()
   | gauges ->
     Buffer.add_string buf "health:\n";
     List.iter
       (fun (name, sample) ->
         Buffer.add_string buf
           (Printf.sprintf "  %-28s %8d\n" name (sample ())))
       gauges);
  let tracer = Trace.of_clock t.clock in
  if Trace.summaries tracer <> [] then
    Buffer.add_string buf (Trace.report tracer);
  Buffer.contents buf

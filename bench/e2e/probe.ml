(* Per-layer measurement, taken from outside lib/: the benchmark times
   its own calls into each layer (virtual cycles and host ns) and reads
   the counters each layer already exports. Nothing here adds a span
   or a counter inside the program.

   Besides the untraced pass every run makes, a traced run measures a
   round again on identical inputs in a [Counting] pass (timers and
   counter deltas, no tracing; its host time is the baseline of the
   tracing overhead) and in a [Tracing] pass (the program's own spans
   plus the benchmark's [bench.<module>] spans, no timers). Untraced,
   the probes are [Off]: two tests per call. *)

module Clock = Spin_machine.Clock
module Trace = Spin_machine.Trace

type mode = Off | Counting | Tracing

let mode = ref Off

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type timing = {
  mutable calls : int;
  mutable cycles : int;
  mutable host_ns : int;
  lat : Stats.samples;
}

let timings : (string, timing) Hashtbl.t = Hashtbl.create 32
let counts : (string, int) Hashtbl.t = Hashtbl.create 64
let runnable_max = ref 0

let reset () =
  Hashtbl.reset timings;
  Hashtbl.reset counts;
  runnable_max := 0

(* Set by the harness around a round's measured phase, so calls made
   while a fixture is being built are not measured. *)
let measuring = ref false

let counting () = !measuring && !mode = Counting

let total name = Option.value ~default:0 (Hashtbl.find_opt counts name)

let add name n = Hashtbl.replace counts name (total name + n)

let timing key =
  match Hashtbl.find_opt timings key with
  | Some t -> t
  | None ->
    let t = { calls = 0; cycles = 0; host_ns = 0; lat = Stats.samples () } in
    Hashtbl.replace timings key t;
    t

(* A call site: [layer] is the lib/ module the call enters. *)
type point = { key : string; cat : string; name : string }

let point layer name =
  { key = layer ^ "." ^ name; cat = "bench." ^ layer; name }

let record p ~cycles ~ns =
  let t = timing p.key in
  t.calls <- t.calls + 1;
  t.cycles <- t.cycles + cycles;
  t.host_ns <- t.host_ns + ns;
  Stats.add t.lat cycles

(* Runs [f] as one call into [p]'s layer. [rid] tags the span with the
   request it serves, so the benchmark's spans and the program's share
   one timeline per request. *)
let call clock p ?(rid = 0) f =
  if counting () then begin
    let c0 = Clock.now clock and h0 = now_ns () in
    let finish () = record p ~cycles:(Clock.now clock - c0) ~ns:(now_ns () - h0) in
    match f () with
    | r -> finish (); r
    | exception e -> finish (); raise e
  end
  else if !mode = Tracing then
    Trace.with_span (Trace.of_clock clock) ~cat:p.cat ~name:p.name
      ~args:[ ("rid", string_of_int rid) ] f
  else f ()

(* Counter deltas over a measured phase: [snapshot] reads the layers'
   cumulative counters at its start, and the returned closure adds
   what changed by its end. *)
let snapshot read =
  if not (counting ()) then fun () -> ()
  else begin
    let before = read () in
    fun () ->
      List.iter2
        (fun (name, b) (name', a) ->
           assert (String.equal name name');
           add name (a - b))
        before (read ())
  end

type kind =
  | Instant
  | Begin of int
  | End of int

(* Ring records are mutated in place: each slot's record is allocated
   once (on the ring's first revolution) and then rewritten on every
   overwrite, so a steady-state tracing workload allocates nothing per
   instant or span endpoint. [records] hands out copies, never the
   live slots. *)
type record = {
  mutable ts : int;
  mutable kind : kind;
  mutable cat : string;
  mutable name : string;
  mutable args : (string * string) list;
}

(* Span tokens are recycled through an intrusive free list threaded
   over [s_link] ([null_span] terminates it and is never pooled).
   [end_span] retires the token by setting [sid] to -1 before pushing
   it on the list, which also makes ending a span twice a no-op. *)
type span = {
  mutable sid : int;
  mutable t0 : int;
  mutable scat : string;
  mutable sname : string;
  mutable s_link : span;
}

let rec null_span =
  { sid = -1; t0 = 0; scat = ""; sname = ""; s_link = null_span }

(* Per-key latency aggregate: exact count, sum, min and max, so the
   mean and the extremes are exact. No percentile is estimated here;
   a caller that needs order statistics keeps its own samples. *)
type agg = {
  mutable a_count : int;
  mutable a_sum : int;
  mutable a_min : int;
  mutable a_max : int;
}

type summary = {
  count : int;
  mean_us : float;
  min_us : float;
  max_us : float;
}

type t = {
  clock : Clock.t;
  capacity : int;
  buf : record array;
  mutable on : bool;
  mutable head : int;                     (* next write position *)
  mutable len : int;
  mutable n_dropped : int;
  mutable next_span : int;
  mutable span_pool : span;               (* free list over [s_link] *)
  aggs : (string, agg) Hashtbl.t;
  mutable agg_order : string list;        (* first-use order *)
}

(* All slots alias [dummy] until first written; [push] detects the
   aliasing and allocates the slot's own record exactly once. *)
let dummy = { ts = 0; kind = Instant; cat = ""; name = ""; args = [] }

(* One tracer per clock: subsystems sharing a clock (every machine on
   one simulation) share a timeline, so cross-host packet flows land
   in one trace. The tracer sits in the clock's own slot, so a
   finished simulation takes its tracer with it. *)
type Clock.tracer += Tracer of t

let of_clock ?(capacity = 16384) clock =
  match Clock.tracer clock with
  | Some (Tracer t) -> t
  | Some _ | None ->
    if capacity <= 0 then
      invalid_arg "Trace.of_clock: capacity must be positive";
    let t =
      { clock; capacity; buf = Array.make capacity dummy;
        on = false; head = 0; len = 0; n_dropped = 0; next_span = 1;
        span_pool = null_span;
        aggs = Hashtbl.create 32; agg_order = [] } in
    Clock.set_tracer clock (Tracer t);
    t

let capacity t = t.capacity

let enable t = t.on <- true

let disable t = t.on <- false

let on t = t.on

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.n_dropped <- 0;
  (* Keep the slot records for reuse but scrub their payloads so a
     cleared trace pins no strings or argument lists. *)
  Array.iter
    (fun r ->
       if r != dummy then begin
         r.ts <- 0; r.kind <- Instant; r.cat <- ""; r.name <- ""; r.args <- []
       end)
    t.buf;
  Hashtbl.reset t.aggs;
  t.agg_order <- []

let dropped t = t.n_dropped

(* ------------------------------------------------------------------ *)
(* Recording                                                          *)
(* ------------------------------------------------------------------ *)

let push t ~ts ~kind ~cat ~name ~args =
  if t.len = t.capacity then t.n_dropped <- t.n_dropped + 1
  else t.len <- t.len + 1;
  let r = t.buf.(t.head) in
  let r =
    if r != dummy then r
    else begin
      let r = { ts; kind; cat; name; args } in
      t.buf.(t.head) <- r;
      r
    end in
  r.ts <- ts;
  r.kind <- kind;
  r.cat <- cat;
  r.name <- name;
  r.args <- args;
  t.head <- (t.head + 1) mod t.capacity

let agg t key =
  match Hashtbl.find_opt t.aggs key with
  | Some a -> a
  | None ->
    let a = { a_count = 0; a_sum = 0; a_min = max_int; a_max = 0 } in
    Hashtbl.replace t.aggs key a;
    t.agg_order <- t.agg_order @ [ key ];
    a

let record_latency t ~key cycles =
  if t.on then begin
    let cycles = max 0 cycles in
    let a = agg t key in
    a.a_count <- a.a_count + 1;
    a.a_sum <- a.a_sum + cycles;
    if cycles < a.a_min then a.a_min <- cycles;
    if cycles > a.a_max then a.a_max <- cycles
  end

let instant t ~cat ~name ?(args = []) () =
  if t.on then
    push t ~ts:(Clock.now t.clock) ~kind:Instant ~cat ~name ~args

let begin_span t ~cat ~name ?(args = []) () =
  if not t.on then null_span
  else begin
    let sid = t.next_span in
    t.next_span <- sid + 1;
    let now = Clock.now t.clock in
    push t ~ts:now ~kind:(Begin sid) ~cat ~name ~args;
    if t.span_pool != null_span then begin
      let s = t.span_pool in
      t.span_pool <- s.s_link;
      s.s_link <- null_span;
      s.sid <- sid;
      s.t0 <- now;
      s.scat <- cat;
      s.sname <- name;
      s
    end
    else
      { sid; t0 = now; scat = cat; sname = name; s_link = null_span }
  end

let end_span ?(args = []) t s =
  if s.sid >= 0 && t.on then begin
    let now = Clock.now t.clock in
    push t ~ts:now ~kind:(End s.sid) ~cat:s.scat ~name:s.sname ~args;
    record_latency t ~key:(s.scat ^ "." ^ s.sname) (now - s.t0);
    (* Retire and recycle the token. [sid <- -1] makes a second
       end_span on the same token a no-op. *)
    s.sid <- -1;
    s.scat <- "";
    s.sname <- "";
    s.s_link <- t.span_pool;
    t.span_pool <- s
  end

let with_span t ~cat ~name ?args f =
  if not t.on then f ()
  else begin
    let s = begin_span t ~cat ~name ?args () in
    Fun.protect ~finally:(fun () -> end_span t s) f
  end

(* ------------------------------------------------------------------ *)
(* Reading the ring                                                   *)
(* ------------------------------------------------------------------ *)

(* Copies, not the live slots: the ring mutates records in place on
   overwrite, so handing out the slots themselves would let a later
   push rewrite a reader's data under it. *)
let records t =
  let start =
    if t.len = t.capacity then t.head else 0 in
  List.init t.len (fun i ->
      let r = t.buf.((start + i) mod t.capacity) in
      { ts = r.ts; kind = r.kind; cat = r.cat; name = r.name; args = r.args })

(* ------------------------------------------------------------------ *)
(* Latency aggregates                                                 *)
(* ------------------------------------------------------------------ *)

(* An aggregate exists only once a sample has landed in it, so the
   count is never zero here. *)
let summary_of t a =
  let us c = Cost.cycles_to_us (Clock.cost t.clock) c in
  { count = a.a_count;
    mean_us = us a.a_sum /. float_of_int a.a_count;
    min_us = us a.a_min;
    max_us = us a.a_max }

let summary t ~key =
  Hashtbl.find_opt t.aggs key |> Option.map (summary_of t)

let summaries t =
  List.map (fun key -> (key, summary_of t (Hashtbl.find t.aggs key)))
    t.agg_order

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                          *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Spans are emitted as async begin/end pairs ("b"/"e" with an id):
   unlike "B"/"E" duration events they need not nest, and spans here
   routinely interleave (an HTTP request span straddles many strand
   switches). Instants use "i" with thread scope. *)
let to_chrome_json t =
  let cost = Clock.cost t.clock in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let emit r =
    if not !first then Buffer.add_char buf ',';
    first := false;
    let ts = Cost.cycles_to_us cost r.ts in
    let common =
      Printf.sprintf "\"name\":\"%s\",\"cat\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":1"
        (json_escape r.name) (json_escape r.cat) ts in
    let phase =
      match r.kind with
      | Instant -> "\"ph\":\"i\",\"s\":\"t\""
      | Begin sid -> Printf.sprintf "\"ph\":\"b\",\"id\":%d" sid
      | End sid -> Printf.sprintf "\"ph\":\"e\",\"id\":%d" sid in
    let args =
      match r.args with
      | [] -> ""
      | args ->
        let fields =
          List.map
            (fun (k, v) ->
               Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
            args in
        Printf.sprintf ",\"args\":{%s}" (String.concat "," fields) in
    Buffer.add_string buf
      (Printf.sprintf "{%s,%s%s}" common phase args) in
  List.iter emit (records t);
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

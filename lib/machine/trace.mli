(** Kernel-wide event tracing and latency profiling.

    A bounded ring buffer of sim-clock-timestamped records — instant
    markers and begin/end spans, each with a category, a name, and
    optional string arguments — plus per-key latency aggregates. The
    ring exports as Chrome [trace_event] JSON (loadable in
    chrome://tracing or Perfetto); each aggregate keeps the exact
    count, sum, min and max of its samples, so it reports an exact
    mean, min and max in virtual microseconds. There is no percentile
    estimate: a caller that needs order statistics keeps every sample
    and ranks it (the benchmarks use spinbench's [Stats]).

    Tracing is off by default and compile-out cheap: every recording
    entry point is behind a single mutable-bool check ({!on}), so the
    disabled tracer adds one branch to instrumented hot paths.
    Recording charges no virtual cycles — the profiler observes the
    simulation without perturbing the latencies it measures.

    Tracers are shared per {!Clock}: every subsystem on one simulation
    (including several machines wired together) records into one
    timeline, so a packet's life across hosts reads as one trace. *)

type t

type kind =
  | Instant
  | Begin of int   (** span id *)
  | End of int

type record = {
  mutable ts : int;                (** cycles since boot *)
  mutable kind : kind;
  mutable cat : string;            (** layer: "dispatcher", "tcp", ... *)
  mutable name : string;
  mutable args : (string * string) list;
}
(** Fields are mutable because the ring rewrites its slot records in
    place (one allocation per slot, ever); {!records} returns fresh
    copies, so holding one is safe. *)

type span
(** An open span token returned by {!begin_span}; pass to {!end_span}. *)

val null_span : span
(** The token {!begin_span} returns while tracing is disabled;
    {!end_span} ignores it. *)

val create : ?capacity:int -> Clock.t -> t
(** A fresh tracer over the clock's timeline. [capacity] bounds the
    ring (default 16384 records); older records are dropped on
    overflow. *)

val of_clock : ?capacity:int -> Clock.t -> t
(** The shared tracer for this clock, created on first use.
    [capacity] only applies to that first creation. *)

val clock : t -> Clock.t

val capacity : t -> int

val enable : t -> unit

val disable : t -> unit

val on : t -> bool
(** The hot-path check: instrumentation sites guard any argument
    construction behind [if Trace.on tr then ...]. *)

val clear : t -> unit
(** Drops all records and latency aggregates; keeps the enabled flag. *)

val dropped : t -> int
(** Records evicted by ring overflow since the last {!clear}. *)

(** {2 Recording} *)

val instant :
  t -> cat:string -> name:string -> ?args:(string * string) list ->
  unit -> unit

val begin_span :
  t -> cat:string -> name:string -> ?args:(string * string) list ->
  unit -> span

val end_span : ?args:(string * string) list -> t -> span -> unit
(** Closes the span and records its duration under the ["cat.name"]
    latency key. The token is retired and recycled; ending the
    same token twice is a no-op. *)

val with_span :
  t -> cat:string -> name:string -> ?args:(string * string) list ->
  (unit -> 'r) -> 'r
(** Runs the thunk inside a span; the span is closed even if the
    thunk raises. When tracing is disabled this is one bool check
    and a direct call. *)

val record_latency : t -> key:string -> int -> unit
(** Feeds a cycle count straight into a key's aggregate, without ring
    records. *)

(** {2 Reading back} *)

val records : t -> record list
(** Ring contents, oldest first. *)

val paired_spans : t -> (record * record) list
(** (begin, end) pairs for spans with both endpoints still in the
    ring; wraparound orphans are omitted here but still exported. *)

type summary = {
  count : int;
  mean_us : float;
  min_us : float;
  max_us : float;
}
(** Exact over every sample recorded under the key since the last
    {!clear}. *)

val summary : t -> key:string -> summary option

val summaries : t -> (string * summary) list
(** Every latency key, in first-use order. *)

val to_chrome_json : t -> string
(** The ring as Chrome [trace_event] JSON ([{"traceEvents": [...]}]).
    Spans become async begin/end pairs (["ph":"b"]/["ph":"e"] sharing
    an id) so interleaved spans need not nest; instants become
    ["ph":"i"]. Timestamps are virtual microseconds. *)

val report : t -> string
(** Human-readable count, mean, min and max per latency key. *)

(** {2 Allocation pooling} *)

type pool_stats = {
  ring_reused : int;   (** pushes that rewrote a ring record in place *)
  ring_fresh : int;    (** pushes that allocated a slot's record *)
  span_hits : int;     (** span tokens recycled from the free list *)
  span_misses : int;   (** span tokens freshly allocated *)
}

val pool_stats : t -> pool_stats
(** Once the ring has revolved and the span pool warmed, steady-state
    tracing allocates only argument lists — [ring_fresh] and
    [span_misses] stop growing. *)

val gauges : t -> (string * (unit -> int)) list
(** The pool counters as [trace.ring_reused], [.ring_fresh],
    [.span_pool_hits] and [.span_pool_misses]. *)

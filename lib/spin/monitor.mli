(** A passive monitoring extension (paper, section 3.2: "the model
    allows extensions to passively monitor system activity, and
    provide up-to-date performance information to applications").

    The monitor installs counting handlers on events of interest —
    optionally guarded, so it can watch a single instance — and
    reports per-event rates over virtual time. It never perturbs
    results: its handlers cost one dispatch each and return nothing.

    Health gauges come from the subsystems themselves: each exports a
    [gauges] list ({!Spin_sched.Sched.gauges},
    {!Spin_net.Netif.gauges}, {!Supervisor.gauges}, ...) naming the
    samples that describe it, and {!watch_gauges} registers any such
    list. *)

type t

val create : Spin_machine.Clock.t -> t

val watch :
  ?interest:('a -> bool) -> t -> ('a, 'r) Spin_core.Dispatcher.event -> unit
(** Count every raise of the event, or only raises whose argument
    satisfies [interest] (a guard — per-instance monitoring). *)

val counts : t -> (string * int) list
(** Events in watch order with their observed raise counts. *)

val watch_gauges : t -> (string * (unit -> int)) list -> unit
(** Registers named health gauges, sampled at {!report} / {!gauges}
    time, after those already registered. Gauges surface state the
    monitor does not own — device drop counters, supervisor fault
    tallies — so overload and failure show up in the same report as
    event rates. *)

val gauges : t -> (string * int) list
(** Registered gauges with their current samples. *)

val report : t -> string
(** Human-readable counts and rates per virtual second, followed by
    the health gauges and, when the clock's tracer
    ({!Spin_machine.Trace.of_clock}) holds latency histograms, its
    {!Spin_machine.Trace.report}. *)

(** The event dispatcher — the heart of SPIN's extension model.

    An event is a procedure exported from an interface; raising the
    event is calling the procedure. The module that statically exports
    the procedure is its *primary implementation module*: it provides
    the default handler, authorizes additional handler installations
    (possibly attaching guards and execution constraints), and may
    permit removal of the primary handler.

    Each event keeps a {e dispatch plan}, rebuilt whenever its handler
    set changes (install, uninstall, eviction, an added guard,
    primary removal or reinstatement) and never on a raise. A
    raise is one match on the plan:
    - [Direct]: a single unguarded, unbounded synchronous handler and
      no live indexed handler — the raise is a direct procedure call
      (the 0.13 us protected in-kernel call of Table 2);
    - [Trusted]: a single verified synchronous handler and no live
      indexed handler — beyond the paper, a handler whose predicate is
      {!Ebc} bytecode that passed the install-time verifier runs its
      compiled predicate and is invoked with zero per-event safety
      checks (no guard-stack interpretation, no overrun stamping);
    - [General]: anything else — the dispatcher looks the argument up
      in the event's index (when it has one), then evaluates each
      handler's guard stack (or verified predicate) and invokes the
      passing handlers, charging per-guard and per-handler costs (the
      linear scaling measured in section 5.5). The handler list is a
      snapshot: a dispatch sees the handlers installed when it began,
      and skips any evicted before its turn.

    Handlers may be asynchronous (decoupling the raiser from handler
    latency) or bounded in time (aborted — result discarded — when
    they overrun). An extension handler that raises is caught,
    counted, traced and uninstalled; the raise carries on without it
    (section 4.3). An asynchronous one runs on a strand of its own,
    through the spawn hook the scheduler installs, and is caught the
    same way there, so its fault never reaches that strand. One result is returned, by default that
    of the final handler executed; an event may declare a
    result-combination function, a fold over the results in dispatch
    order. Installation goes through one entry point, {!install},
    taking a {!Handler_spec.t}. *)

type t
(** A dispatcher instance (one per kernel). *)

val create : Spin_machine.Clock.t -> t

val tracer : t -> Spin_machine.Trace.t
(** The clock-shared tracer dispatch records into (raise spans tagged
    with the plan's path — fast, trusted or slow — guard rejections,
    handler invocations, fault markers). Disabled tracing costs one
    bool check per site. *)

val set_async_spawn : t -> ((unit -> unit) -> unit) -> unit
(** Installs the thread-spawn hook that runs each asynchronous
    handler's body ({!Spin_sched.Sched.create} installs one). Until a
    hook is installed, raising an event with an asynchronous handler
    raises [Invalid_argument], naming the missing scheduler. *)

val async_starts : t -> int
(** Asynchronous handler bodies started so far, on every event of the
    dispatcher. A raiser that lends its argument for the dispatch
    alone compares it before and after the raise: an unchanged count
    means no asynchronous body, started by this raise or a nested one
    on the same dispatcher, will see the argument after it returns.
    [Netif] does, to recycle a received frame's buffer. *)

(** {2 Handler specifications}

    Everything an installation can ask for, in one record — the single
    install surface the facades build on. *)

module Handler_spec : sig
  type 'a t = {
    guard : ('a -> bool) option;
        (** closure guard (conjoined with the authorizer's) *)
    bound_cycles : int option;
        (** runtime cycle bound; with [verified] set it becomes the
            install-time step budget instead of a per-event stamp *)
    async : bool;
    index_key : int option;
        (** install into the event's index slot for this key *)
    verified : Ebc.program option;
        (** bytecode predicate, verified at install; on success and
            with no [guard]/authorizer constraints the handler takes
            the trusted-fast path *)
  }

  val default : 'a t
  (** No guard, no bound, synchronous, unindexed, unverified. *)

  val guarded : ('a -> bool) -> 'a t
  val indexed : int -> 'a t
  val verified : Ebc.program -> 'a t

  (** Type-erased per-handler view, enumerable through the dispatcher
      ({!installed_specs}) so the topology, audits and tests see every
      installed handler — linear and indexed — without knowing event
      types. *)
  type info = {
    i_installer : string;
    i_trusted : bool;
    i_bound : int option;
    i_guards : int;
  }
end

(** {2 Concurrency invariant probes}

    Hooks for the schedule-fuzzing checkers ({!Spin_sched.Sched_fuzz}
    installs them): structural invariants of the handler lists are
    verified without perturbing dispatch. *)

val set_violation_hook : t -> (string -> unit) option -> unit
(** Installs (or clears) the invariant-violation sink. The dispatcher
    reports through it when an internal invariant breaks — e.g. an
    inactive (uninstalled or evicted) handler reaching an
    invocation site, which means a dispatch path skipped the
    active-handler filter. Charges no virtual cycles. *)

val audit : t -> (string -> unit) -> unit
(** Sweeps every declared event and reports structural violations:
    inactive handlers lingering in a handler list, an
    active-indexed count that disagrees with a recount of the index
    slots, a cached dispatch plan that differs from a fresh
    recompute, or dispatches still marked in flight at a quiescent
    point. Cheap enough to run after every test; the fuzzer runs it at
    every scheduling point. *)

type ('a, 'r) event

type ('a, 'r) handler

type 'a decision =
  | Deny
  | Allow of {
      guard : ('a -> bool) option;   (** guard imposed by the primary *)
      bound_cycles : int option;     (** time bound imposed *)
      force_async : bool;            (** isolate the raiser *)
    }

exception No_handler of string
(** Raised when an event with no applicable handler needs a result. *)

val declare :
  t ->
  name:string ->
  owner:string ->
  ?layout:'a Ebc.layout ->
  ?combine:('r -> 'r -> 'r) ->
  ?auth:(installer:string -> 'a decision) ->
  ?index:('a -> int) ->
  ?allow_remove_primary:(requester:string -> bool) ->
  ('a -> 'r) ->
  ('a, 'r) event
(** [declare t ~name ~owner default] declares an event whose default
    implementation is [default], owned by module [owner].

    [combine] folds a raise's results in dispatch order (primary,
    then the other linear handlers in install order, then the indexed
    handlers): the first result seeds it, and each later result [r]
    replaces the accumulator [acc] with [combine acc r]. The default
    keeps the last result. Only results count: a handler that a guard
    rejected, that ran asynchronously, that faulted or that overran
    its bound adds none. A raise no handler answers has no result at
    all, whatever [combine] is: {!raise_event} raises {!No_handler}
    and {!raise_default} returns its fallback. While the primary is
    installed it always answers, so only an event that allows
    {!remove_primary} can be left with no result.

    By default installations are allowed unconstrained and primary
    removal is denied. [?layout] publishes the event's typed field
    table and payload to the bytecode verifier; without it, verified
    installs are rejected with [Ebc.No_layout]. *)

type install_error =
  | Denied                 (** the primary module refused the installer *)
  | No_index               (** [index_key] on an event with no index *)
  | Rejected of Ebc.error  (** the bytecode failed install-time verification *)

val install_error_to_string : install_error -> string

val install :
  ('a, 'r) event ->
  installer:string ->
  ?spec:'a Handler_spec.t ->
  ('a -> 'r) ->
  (('a, 'r) handler, install_error) result
(** The single install entry point. Installs an additional handler
    per [spec] (default {!Handler_spec.default}), subject to the
    primary module's authorization; authorizer constraints merge with
    the spec's (guards conjoin; the tighter bound wins; async is
    forced if either asks). A [spec.verified] program is checked by
    {!Ebc.verify} against the event's layout before anything is
    linked in — a rejection installs nothing and returns [Rejected].
    On success the handler takes the trusted-fast path, unless a
    closure guard or bound was also requested, in which case the
    compiled program demotes to an ordinary guard.

    A [spec.index_key] installs into the event's index slot for that
    key — the optimization section 5.5 leaves as future work
    ("representing guard predicates as decision trees"): handlers are
    found by hashing the raised argument's index instead of walking a
    linear guard list, equality guards in O(1). The paper's footnote 1
    closure ("an additional closure to be passed to the handler during
    event processing", one handler procedure serving several contexts)
    is partial application: install [fn closure] with a guard built
    from [closure]. *)

val ok_exn : site:string -> ('h, install_error) result -> 'h
(** The handler an install returned; an [Error] raises
    [Invalid_argument] naming [site] and the error. For installs only
    a misconfigured kernel could see refused. *)

val add_guard : ('a, 'r) handler -> ('a -> bool) -> unit
(** Stacks one more guard on a handler (conjunction) and rebuilds its
    event's plan. On a trusted handler this forfeits the trusted-fast
    path: the compiled verified predicate demotes to the front of the
    guard stack and the handler reverts to the guarded (policed)
    path. *)

val uninstall : ('a, 'r) event -> ('a, 'r) handler -> unit

val remove_primary :
  ('a, 'r) event -> requester:string -> (unit, [ `Denied ]) result
(** Removes the default handler from dispatch, if the primary module
    allows it. *)

val raise_event : ('a, 'r) event -> 'a -> 'r
(** Raise the event: its handlers' results, folded by its
    [combine]. Raises {!No_handler} when no handler produced a result.
    The primary's exceptions reach the raiser. *)

val raise_default : ('a, 'r) event -> 'r -> 'a -> 'r
(** [raise_default e fallback arg] is [raise_event e arg], returning
    [fallback] when no handler of [e] produced a result. Only this
    raise's own lack of a result selects [fallback]: a {!No_handler}
    that a handler lets escape from some nested raise propagates to
    the caller like any other exception. *)

val handler_count : ('a, 'r) event -> int
(** Active handlers, including the primary. *)

val indexed_active : ('a, 'r) event -> int
(** Active handlers across the event's index slots. Any live one
    forces the [General] plan; at 0 the fast path resumes. *)

type stats = {
  mutable raises : int;
  mutable fast_path : int;      (** raises that collapsed to a direct call *)
  mutable invocations : int;    (** handler bodies executed *)
  mutable guard_rejections : int;
  mutable aborted : int;        (** bounded handlers that overran *)
  mutable handler_failures : int;
  (** extension handlers that raised: caught, counted, traced and
      uninstalled — failure is isolated to the extension (paper,
      section 4.3). An overrun is counted in [aborted] instead, and
      its handler stays installed. Primary-handler exceptions
      propagate (the default implementation is trusted). *)
  mutable stale_skips : int;
  (** asynchronous handler invocations skipped because the handler was
      uninstalled (or evicted) between the raise and the
      deferred thunk running — the dispatch-during-uninstall race,
      detected and resolved in the handler's disfavor. *)
  mutable gated_waits : int;
  (** raises that arrived while the event was gated (a hot-swap window)
      and were held until the gate reopened. *)
  mutable trusted_fast : int;
  (** dispatches delivered through the trusted-fast path: a verified
      predicate matched and the handler ran with zero per-event
      guard/bound checks. *)
}

val stats : ('a, 'r) event -> stats
(** A copy of the event's counters: a snapshot that later raises do
    not move. *)

val trusted_total : t -> int
(** Trusted-fast dispatches summed across every declared event — the
    quiescence counter for the verified path. *)

val verifier_rejections : t -> int
(** Installs refused because their bytecode failed verification. *)

val installed_specs : t -> installer:string -> Handler_spec.info list
(** Every installed extension handler of one installer (a domain):
    linear and indexed, across every event in declaration order. *)

val topology : t -> (string * string * string list) list
(** [(event, owner, handler installers)] for every declared event, in
    declaration order — the data behind Figure 5. *)

val uninstall_installer : t -> installer:string -> int
(** Evicts every handler installed under [installer] across every
    declared event (linear and indexed) — the primitive behind a hot
    swap's sweep of the old domain. Returns how many handlers were evicted. Primary
    (default) handlers are never touched. *)

(** {2 Swap-window gating}

    A hot swap ({!Spin.Swap}) must stop dispatch into the extension
    being replaced without dropping the requests that arrive while its
    handlers are re-pointed. Gating an event makes {!raise_event} hold
    the raiser at the event's edge — before any cost is charged or
    handler consulted — until the gate reopens; the held raise then
    proceeds against the replacement handlers. *)

val set_gate_wait : t -> (unit -> bool) option -> unit
(** Installs the hook a gated raise parks on. The hook blocks the
    calling strand until the swap drains the gate and returns [true]
    (re-check the gate: spurious wakeups and back-to-back swaps are
    handled by looping) or [false] (the caller is exempt — the swap
    strand itself — and passes through). With no hook installed, gated
    raises pass through: there is no scheduler to park on. *)

val is_gated : ('a, 'r) event -> bool

val gate_installer : t -> installer:string -> string list
(** Closes the gate of every event on which [installer] has an active
    handler, and returns the names of the events closed — the exact
    set to reopen once the swap commits. *)

val set_gate_by_name : t -> names:string list -> bool -> unit
(** Sets the gate of every named event — [true] closes, [false]
    reopens. Used with the list {!gate_installer} returned. *)

val in_flight_by_name : t -> names:string list -> int
(** Dispatches currently executing inside the named events. New raises
    park at a closed gate {e before} counting as in flight, so a swap
    can quiesce: gate, then yield until this reaches zero — everything
    already inside the old handlers has finished. *)

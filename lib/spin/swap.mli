(** Live extension update: checkpoint, hot-swap, and epoch-based
    revocation.

    A SPIN extension is a domain of handlers installed on dispatcher
    events. Replacing one under load has to answer three questions the
    paper's static linking story doesn't:

    - {b where do in-flight requests go?} Every event the outgoing
      instance handles is *gated* for the swap window
      ({!Spin_core.Dispatcher.gate_installers}): a strand raising into
      a gated event parks at the event's edge — before any handler is
      consulted — and completes against the replacement once the swap
      commits. Nothing is dropped, nothing runs half-old-half-new.

    - {b where does its state go?} An extension that opts in exports
      the Checkpointable pair through its domain: ["Swap.checkpoint"]
      (pack up externalized state as a [Univ.t]) and ["Swap.restore"]
      (accept that package in the next version). The swap runs
      checkpoint before touching anything irreversible, so a failing
      checkpoint rolls back to the untouched old instance.

    - {b what about references it handed out?} Committing the swap
      advances the domain's capability epoch
      ({!Spin_core.Capability.advance_epoch}) and, if the extension
      exported its {!Spin_core.Extern_ref} table as ["Swap.externs"],
      the table's epoch too. Every reference the old instance minted
      dies in O(1): a stale use raises the typed
      [Capability.Revoked] fault (counted by the supervisor) or
      internalizes as [None] — never a dangle into retired code.

    The swap protocol: prepare (link the replacement; failures leave
    the old instance untouched) → verify the replacement covers the
    old exports ({!Spin_core.Kdomain.export_gaps}) → gate → checkpoint
    → sweep old handlers and cancel their pending restarts → unlink →
    initialize the replacement (its initializer installs the new
    handlers) → restore → advance epochs → ungate and drain parked
    strands. The window's length is recorded under the tracer's ["swap.pause"]
    latency key. *)

(** {2 The Checkpointable convention}

    Tags and typed symbols for the optional exports a swappable
    extension provides. Both versions of an extension share the state
    tag they pack checkpoints under; the swap machinery moves the
    opaque [Univ.t] without inspecting it. *)

val checkpoint_tag : (unit -> Spin_core.Univ.t) Spin_core.Univ.tag

val restore_tag : (Spin_core.Univ.t -> unit) Spin_core.Univ.tag

val externs_tag : Spin_core.Extern_ref.t Spin_core.Univ.tag

val checkpoint_sym : Spin_core.Symbol.t
(** ["Swap.checkpoint" : () -> Swap.State] *)

val restore_sym : Spin_core.Symbol.t
(** ["Swap.restore" : Swap.State -> ()] *)

val externs_sym : Spin_core.Symbol.t
(** ["Swap.externs" : ExternRef.T] *)

(** {2 Outcomes} *)

type outcome = {
  sw_domain : string;
  sw_from_version : int;
  sw_to_version : int;
  sw_gated_events : string list;  (** events closed for the window *)
  sw_held_raises : int;           (** strands parked, then drained *)
  sw_handlers_swept : int;        (** old handlers evicted *)
  sw_verified_swept : int;
      (** of those, how many dispatched trusted-fast (verified
          bytecode) — the replacement re-verifies at install, so a
          drop here means the new version fell back to closures *)
  sw_restarts_cancelled : int;    (** pending restarts aimed at them *)
  sw_cap_epoch : int;             (** the domain's new capability epoch *)
  sw_extern_epoch : int option;   (** new extern-table epoch, if exported *)
  sw_checkpointed : bool;         (** state moved via checkpoint/restore *)
  sw_pause_us : float;            (** window length (virtual time) *)
  sw_at_us : float;
}

type error =
  | Unknown_domain of string
  | Swap_in_progress of string
  | Link_failure of Spin_core.Kdomain.error
  | Export_gap of string list
      (** old exports the replacement fails to cover compatibly *)
  | Not_restorable of string
      (** the old instance checkpoints but the replacement exports no
          ["Swap.restore"] — its state would be silently dropped *)
  | Checkpoint_failure of exn  (** rolled back; old instance untouched *)
  | Restore_failure of exn
      (** the replacement is live but starts empty-handed *)

val error_to_string : error -> string

type t

val create : Spin_sched.Sched.t -> Spin_core.Dispatcher.t -> t
(** Declares the [Swap.DomainSwapped] event and installs the gate-wait
    hook ({!Spin_core.Dispatcher.set_gate_wait}): strands raising into
    gated events block on the scheduler and are drained at commit.
    One per dispatcher (the kernel creates one at boot). *)

val hot_swap :
  t ->
  old_domain:Spin_core.Kdomain.t ->
  replacement:Spin_core.Object_file.t ->
  prepare:
    (Spin_core.Object_file.t ->
     (Spin_core.Kdomain.t, Spin_core.Kdomain.error) result) ->
  ?activate:(Spin_core.Kdomain.t -> unit) ->
  ?unlink:(string -> unit) ->
  ?supervisor:Supervisor.t ->
  unit ->
  (outcome, error) result
(** Runs the swap protocol. [prepare] creates and links the
    replacement domain (the kernel resolves against [SpinPublic]);
    [activate] publishes the new domain after restore; [unlink]
    withdraws the old one. With [supervisor], the gate and sweep cover
    every installer attributed to the domain, and restarts pending
    against old handlers are cancelled. Call {!Kernel.hot_swap}
    rather than this when a kernel is running. *)

val swapped_event : t -> (outcome, unit) Spin_core.Dispatcher.event
(** Raised after each committed swap, so peers can re-mint references
    or re-resolve interfaces. *)

val in_progress : t -> string option
(** The domain mid-swap, if any (swaps do not nest). *)

type stats = {
  swaps : int;            (** committed *)
  failed_swaps : int;
  held_raises : int;      (** strands parked across all windows *)
  swept_handlers : int;
}

val stats : t -> stats

val gauges : t -> (string * (unit -> int)) list
(** [swap.swaps], [.failed], [.held_raises] and [.swept_handlers]. *)

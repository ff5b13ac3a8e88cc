(** The supervisor: per-domain fault containment, quarantine, and
    restart-with-backoff for extensions.

    The dispatcher reproduces the paper's section 4.3 guarantee — a
    faulting handler is caught and the raise survives — but by itself
    only knows how to evict the handler. The supervisor sits above it
    and decides *what happens next*. It attaches to the dispatcher's
    fault stream ({!Spin_core.Dispatcher.set_fault_handler}) and keeps
    a per-domain fault ledger:

    - handlers installed with [on_failure = Uninstall] behave as
      before (evicted on first fault);
    - [Restart] handlers are re-installed after an exponentially
      backed-off delay, up to a restart budget, via deferred simulator
      events;
    - [Quarantine] handlers stay installed across faults, but a
      domain that exceeds its fault budget inside the sliding window
      is quarantined: every handler it installed, on every event, is
      atomically evicted (via the dispatcher registry), pending
      restarts are cancelled, and the domain is unlinked from the
      public namespace ({!set_unlink}).

    Quarantine and restart are themselves events —
    [Supervisor.ExtensionQuarantined] / [Supervisor.ExtensionRestarted]
    — declared on the same dispatcher and published by the kernel, so
    other extensions can observe failures and degrade gracefully. *)

type t

type quarantine = { q_domain : string }

type restart = { r_attempt : int (** 1 = first restart *) }

type budget = { window_us : float; max_faults : int }

val create : Spin_machine.Sim.t -> Spin_core.Dispatcher.t -> t
(** Declares the two supervisor events on the dispatcher and installs
    itself as the dispatcher's fault handler. *)

val register_domain :
  t -> name:string -> ?installers:string list -> ?budget:budget ->
  unit -> unit
(** Groups several handler installers under one named domain (by
    default each installer is its own domain) and optionally arms a
    domain-level fault budget that applies regardless of per-handler
    policies. *)

val set_unlink : t -> (string -> unit) -> unit
(** Called with the domain name when a domain is quarantined; the
    kernel wires this to withdrawing the domain's interfaces from the
    nameserver and SpinPublic. Default: no-op. *)

val cancel_pending : t -> domain:string -> int
(** Cancels the domain's scheduled (not yet fired) handler restarts
    and returns how many were cancelled. A hot swap calls this while
    retiring the old instance: a restart scheduled against the old
    handlers must not fire after the replacement takes over. *)

val installers : t -> domain:string -> string list
(** Every installer name attributed to the domain (including the
    domain name itself) — the set a registry sweep must cover to evict
    or gate all of the domain's handlers. For an unknown domain,
    [[domain]]. *)

val quarantined_event :
  t -> (quarantine, unit) Spin_core.Dispatcher.event

val restarted_event : t -> (restart, unit) Spin_core.Dispatcher.event

(* -------------------- per-domain accounting ----------------------- *)

val faults : t -> string -> int
(** Total faults attributed to the domain. *)

val is_quarantined : t -> string -> bool

type stats = {
  s_faults : int;
  s_restarts : int;
  s_gave_up : int;     (** Restart handlers that exhausted max_restarts *)
  s_backoff_capped : int;
  (** restart delays clamped to the one-second cap *)
  s_backoff_resets : int;
  (** attempt counts forgotten after ten fault-free seconds *)
  s_revoked : int;
  (** faults that were {!Spin_core.Capability.Revoked} — stale
      references used after revocation or a hot-swap epoch advance *)
}

val stats : t -> stats

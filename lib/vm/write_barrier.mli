(** Write barriers from protection faults (Appel & Li; paper sections
    4.1 and 5.2): "concurrent and generational garbage collectors can
    use write faults to maintain invariants or collect reference
    information".

    The extension write-protects a set of pages; the first store to
    any of them logs the page and re-enables access, so a collector
    (or a checkpointer) can harvest the set of
    pages dirtied since the last {!rearm}. This is precisely the
    workload the Appel1/Appel2 benchmarks of Table 4 model, running on
    SPIN's fast fault path. *)

type t

val create : Vm.t -> Vm_ext.t -> t
(** Installs the barrier's fault procedure on the extension's
    context. Replaces any handler the extension had. *)

val arm : t -> pages:int list -> unit
(** Write-protect the given pages and start logging. *)

val rearm : t -> unit
(** Re-protect every page dirtied so far and clear the log (the
    start of a new collection cycle). *)

val dirty_pages : t -> int list
(** Pages written since the last {!arm}/{!rearm}, oldest first. *)

val faults_taken : t -> int

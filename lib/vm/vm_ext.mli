(** An application-specific virtual memory extension: the in-kernel
    half of the Table 4 benchmarks.

    The extension owns a translation context with a run of pages, and
    defines application-specific fault handling: its guarded handler
    on [Translation.ProtectionFault] reflects faults to the
    application's own procedure through a fast in-kernel protected
    call — the structure that makes SPIN dominate Table 4 (no signal
    machinery, no external pager). *)

type t

val create : Vm.t -> app:string -> pages:int -> t
(** Allocates and maps [pages] zeroed read-write pages. *)

val context : t -> Translation.context

val activate : t -> unit
(** Make the extension's context current on the CPU (the benchmarks
    run "the application" in this context). *)

val read : t -> page:int -> int64
(** User-level load of the first word of the page (may fault). *)

val write : t -> page:int -> int64 -> unit

val dirty : t -> page:int -> bool
(** The "Dirty" operation of Table 4: query page state. *)

val protect : t -> first:int -> count:int -> Spin_machine.Addr.prot -> unit
(** Prot1 / Prot100 / Unprot100. *)

val on_protection_fault : t -> (int -> unit) -> unit
(** Installs the application's fault procedure; it receives the
    faulting page index. Replaces any previous procedure. *)

(** Introspection over the live dispatcher: the protocol graph of
    Figure 5, reconstructed from actual event registrations. *)

val render : Spin_core.Dispatcher.t -> string
(** An ASCII rendering: each event (oval, in the paper's figure) with
    the handlers installed on it (boxes). *)

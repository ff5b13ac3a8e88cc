(** The in-kernel nameserver.

    A module that exports an interface wraps it in a domain and
    registers the domain under the interface's global name (e.g.
    [Console.InterfaceName = "ConsoleService"]). Importers look names
    up with their identity; an exporter may attach an authorization
    procedure that is consulted on every import (paper, section 3.1,
    "restrict access at the time of the import"). *)

type t

type identity = { who : string }
(** The importer's identity, as presented to authorizers. *)

type lookup_error = Unknown_name | Denied

val create : Spin_machine.Clock.t -> t

val register :
  t -> name:string -> ?authorize:(identity -> bool) -> Kdomain.t -> unit
(** Re-registering a name replaces the binding (a new version of the
    service). *)

val lookup : t -> name:string -> identity -> (Kdomain.t, lookup_error) result
(** Charges a procedure call for the authorizer upcall when one is
    installed. *)

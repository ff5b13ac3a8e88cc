(** Linker symbols: an interface-qualified name with a declared type. *)

type t = {
  intf : string;                (** interface name, e.g. "Console" *)
  name : string;                (** item name, e.g. "Open" *)
  ty : Ty.t;
}

val make : intf:string -> name:string -> Ty.t -> t

val full_name : t -> string
(** ["Console.Open"]. *)

val same_name : t -> t -> bool
(** Name equality, ignoring types (resolution matches by name, then
    checks types). *)

val compatible : expected:t -> found:t -> bool

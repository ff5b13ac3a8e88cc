(** A small structural type language standing in for Modula-3
    signatures.

    The in-kernel linker compares the declared type of an imported
    symbol against the exported one; a mismatch is a link-time error,
    reproducing the paper's "type conflict results in an error"
    behaviour for redefined interface types. Opaque types are branded
    by name ([Opaque "Console.T"]), so a redefinition is a different
    type. *)

type t =
  | Unit
  | Int
  | Text
  | Opaque of string            (** a branded opaque type, e.g. "Console.T" *)
  | Proc of t list * t          (** procedure: argument types and result *)

val equal : t -> t -> bool

val to_string : t -> string

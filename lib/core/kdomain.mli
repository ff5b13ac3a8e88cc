(** Logical protection domains and the in-kernel dynamic linker
    (the paper's [Domain] interface, Figure 2).

    A domain names a set of program symbols. [create] initializes a
    domain from a safe object file; [create_from_module] lets a
    module name and export itself at runtime; [resolve] patches the
    target's unresolved imports against the source's exports
    (cross-linking is a pair of resolves); [combine] builds aggregate
    namespaces such as SpinPublic.

    Resolution is atomic: if any matched symbol fails the type check,
    no import is patched. *)

type t

type error =
  | Unsafe_object of string
  | Type_mismatch of { symbol : string; expected : Ty.t; found : Ty.t }

exception Link_error of error

val error_to_string : error -> string

val create : Object_file.t -> (t, error) result
(** Rejects unsigned object files. *)

val create_exn : Object_file.t -> t

val create_from_module :
  name:string -> exports:(Symbol.t * Univ.t) list -> t

val name : t -> string

val version : t -> int
(** The highest {!Object_file.version} among the domain's object
    files; 1 for module-built domains. *)

val combine : name:string -> t -> t -> t
(** The aggregate exports the union of both domains' interfaces.
    Underlying object files are shared, not copied (domains may
    intersect). *)

val exports : t -> Symbol.t list

val fully_resolved : t -> bool

val resolve : source:t -> target:t -> (int, error) result
(** [resolve ~source ~target] patches the target's unresolved imports
    from the source's exports and returns how many were patched.
    Does not export additional symbols from the target. *)

val export_gaps : t -> exports:Symbol.t list -> string list
(** [export_gaps replacement ~exports:(exports old)] checks that the
    replacement keeps every interface promise the old domain made: for
    each old export there must be a same-named, type-compatible export
    in [replacement]. Returns a description of each gap — empty means
    the replacement can stand in for the old domain (hot-swap
    precondition). *)

val lookup : t -> string -> Univ.t option
(** [lookup d "Console.Open"] finds an exported item by full name. *)

val initialize : t -> unit
(** Runs each member object file's initializer (once per file). *)

(** Safe object files.

    An object file is *safe* if it was signed by the (simulated)
    Modula-3 compiler, or if the kernel asserts its safety — the path
    the paper uses to link DEC OSF/1 device drivers written in C.
    Unsigned files are rejected by domain creation.

    A file carries typed exports, typed import slots (patched by the
    linker) and an optional initializer. *)

type safety =
  | Compiler_signed               (** signed by the Modula-3 compiler *)
  | Asserted_safe                 (** trusted by fiat *)
  | Unsigned

type t

type import = {
  import_symbol : Symbol.t;
  cell : Univ.t option ref;       (** patched by [Kdomain.resolve] *)
}

module Builder : sig
  type obj = t
  type t

  val create : name:string -> safety:safety -> unit -> t

  val export : t -> Symbol.t -> Univ.t -> unit
  (** Raises [Invalid_argument] on duplicate export names. *)

  val import : t -> Symbol.t -> Univ.t option ref
  (** Declares an import and returns the cell the module's code reads
      resolved values from. *)

  val set_init : t -> (unit -> unit) -> unit
  (** Run once when the containing domain is initialized. *)

  val set_version : t -> int -> unit
  (** Version stamp reported by hot-swap tooling; defaults to 1.
      Raises [Invalid_argument] below 1. *)

  val build : t -> obj
end

val name : t -> string

val version : t -> int
(** See {!Builder.set_version}. *)

val exports : t -> (Symbol.t * Univ.t) list
val imports : t -> import list

val run_init : t -> unit
(** Runs the initializer on first call; later calls are no-ops. *)

val is_safe : t -> bool

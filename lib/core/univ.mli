(** Universal values: type-safe injection and projection.

    Interfaces export heterogeneous items (procedures, events,
    capabilities) through domains; a [Univ.t] carries any value
    together with the runtime evidence needed to recover it at its
    original type. Projection with the wrong tag yields [None] — the
    moral equivalent of Modula-3 refusing an ill-typed narrow. *)

type t

type 'a tag

val tag : name:string -> unit -> 'a tag
(** [tag ~name ()] mints a fresh tag. Two tags never alias, even at
    the same type — branding, as in Modula-3's [BRANDED]. The name
    documents the tag where it is minted and is not kept: a narrow
    checks the tag's identity. *)

val pack : 'a tag -> 'a -> t

val unpack : 'a tag -> t -> 'a option
(** [unpack tag u] recovers the value iff [u] was packed with exactly
    [tag]. *)

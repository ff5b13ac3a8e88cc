(** Fixed-size bit vectors.

    The physical page allocator uses a bitset as its frame map. *)

type t

val create : int -> t
(** [create n] is a bitset of [n] bits, all clear.
    Raises [Invalid_argument] if [n < 0]. *)

val length : t -> int
(** Number of bits. *)

val set : t -> int -> unit

val clear : t -> int -> unit

val mem : t -> int -> bool

val count : t -> int
(** Number of set bits. *)

val find_first_clear : t -> int option
(** Lowest clear bit index, if any. *)

val find_clear_run : t -> int -> int option
(** [find_clear_run t k] is the start of the lowest run of [k]
    consecutive clear bits, used for contiguous frame allocation. *)

(** The kernel heap and its trace-based, mostly-copying garbage
    collector (paper, section 5.5; Bartlett 1988).

    The collector is the safety net that lets SPIN give extensions
    automatic storage management: resources released by an extension
    "either through inaction or as a result of premature termination"
    are eventually reclaimed, and no extension can free an object
    someone else still references.

    Mostly-copying: unambiguous roots (registered handles) are updated
    when their referents move; *ambiguous* roots — integers that might
    be addresses, e.g. values found in thread stacks — pin the whole
    page containing their referent, which is then promoted wholesale
    (its garbage included, exactly the conservatism of the real
    collector). Everything reachable on unpinned pages is copied to
    fresh pages; unpinned from-space pages are freed.

    Object addresses are therefore stable only for pinned objects;
    hold objects through {!root}s, as kernel code holds them through
    typed pointers. *)

type t

type value =
  | Ptr of int                  (** heap address *)
  | Int of int                  (** immediate *)

type root
(** An unambiguous root: the collector updates it when the referent
    moves. *)

type gc_stats = {
  mutable collections : int;
  mutable pages_pinned : int;   (** cumulative, over all collections *)
  mutable words_freed : int;
  mutable pause_cycles : int;   (** cumulative stop-the-world time *)
}

val create : Spin_machine.Clock.t -> unit -> t
(** Automatic collections run every 16384 words of allocation.
    Collector pages are 1024 words. *)

val alloc : t -> owner:string -> words:int -> int
(** Allocate an object of [words] fields (all [Int 0]), charging the
    allocation cost; may first run a collection when the heap is
    enabled and the threshold is reached. Returns its address.
    Raises [Invalid_argument] for sizes < 1 or > 1024 (a page). *)

val get_field : t -> addr:int -> int -> value
(** Raises [Invalid_argument] if the address is not a live object. *)

val set_field : t -> addr:int -> int -> value -> unit

val is_live : t -> addr:int -> bool

val add_root : t -> value -> root

val read_root : root -> value

val remove_root : t -> root -> unit

val add_ambiguous_root : t -> int -> unit
(** A word that might be a pointer (stack scanning). *)

val set_auto : t -> bool -> unit
(** Disable to measure fast paths without collection (section 5.5's
    experiment: numbers do not change). *)

val collect : t -> unit
(** Stop-the-world collection now. *)

val live_words : t -> int
(** Words in live objects (pinned garbage not counted). *)

val heap_words : t -> int
(** Words of heap pages currently held (including pinned garbage). *)

val owner_words : t -> owner:string -> int
(** Live words attributed to one owner (extension accounting). *)

val stats : t -> gc_stats

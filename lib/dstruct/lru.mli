(** Capacity-bounded LRU maps.

    The buffer cache and the web server's file cache use LRU
    replacement; an eviction callback lets the owner write back or
    account for the displaced entry. *)

type ('k, 'v) t

val create : ?on_evict:('k -> 'v -> unit) -> capacity:int -> unit -> ('k, 'v) t
(** [create ~capacity ()] is an empty cache evicting least-recently-used
    entries beyond [capacity]. Raises [Invalid_argument] if
    [capacity <= 0]. *)

val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** [find t k] returns the binding and marks it most recently used.
    Allocates nothing, hit or miss. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Like {!find} without touching recency. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** [add t k v] binds [k] (replacing any previous binding), marks it
    most recently used, and evicts the LRU entry if over capacity. *)

val remove : ('k, 'v) t -> 'k -> unit
(** Removes without invoking the eviction callback. *)

val mem : ('k, 'v) t -> 'k -> bool

val remove_first : ('k, 'v) t -> ('v -> 'a -> bool) -> 'a -> 'v option
(** [remove_first t p x] removes the most recently used binding whose
    value [v] has [p v x], without invoking the eviction callback, and
    returns its value; [None] when no binding has it. The walk
    allocates nothing unless [p] does. *)

val least_recent : ('k, 'v) t -> 'v option
(** The least-recently-used value — the next to be evicted — without
    touching recency; [None] when empty. O(1), and allocates nothing,
    as {!find}. *)

val evict : ('k, 'v) t -> unit
(** Evicts the least-recently-used binding through the eviction
    callback; no-op when empty. *)

val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit
(** Most-recently-used first. *)

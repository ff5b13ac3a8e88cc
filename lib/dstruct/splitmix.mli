(** SplitMix64: tiny, full-period, and stable across platforms, so a
    seed names the same sequence everywhere. No global state — replay
    depends on nothing but the seed. The schedule fuzzer draws its
    choices from it, and spinbench its seeded inputs. *)

type t

val create : seed:int -> t

val below : t -> int -> int
(** [below t n] is uniform in [0, n); returns 0 for [n <= 1]. *)

val float : t -> float
(** Uniform in [0, 1), from the top 53 bits of the next draw. *)

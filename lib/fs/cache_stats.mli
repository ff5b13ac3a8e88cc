(** The one cache-statistics vocabulary.

    Every cache in the tree ({!Block_cache}, {!File_cache}) reports
    through this record, so consumers — the benchmarks and tests —
    need only one shape. [reclaims] counts entries lost to the
    physical address service's memory-pressure reclamation, as opposed
    to ordinary capacity eviction. *)

type t = {
  hits : int;
  misses : int;
  bytes_cached : int;           (** page-granular resident bytes *)
  reclaims : int;               (** entries torn down under pressure *)
}

val hit_rate : t -> float
(** Hits per lookup in [0, 1]; [0.] before any lookup. *)

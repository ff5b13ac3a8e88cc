(* Exact order statistics. Latencies are kept as every per-operation
   sample (virtual cycles, integers) and ranked exactly; nothing here
   goes through Trace's log2 histograms, whose buckets make p50 and p99
   collapse onto one value. *)

(* A growable buffer of integer samples. *)
type samples = { mutable data : int array; mutable len : int }

let samples () = { data = Array.make 1024 0; len = 0 }

let add s v =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let count s = s.len

let to_sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort compare a;
  a

(* Nearest rank: the smallest sample with at least [pct]% of the samples
   at or below it, i.e. sorted.(ceil (pct * n / 100) - 1). Integer
   arithmetic, so p99 of 1..1000 is exactly 990. *)
let nearest_rank sorted pct =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.nearest_rank: no samples";
  if pct <= 0 || pct > 100 then invalid_arg "Stats.nearest_rank: pct";
  sorted.(max 0 (((pct * n) + 99) / 100 - 1))

let percentile s pct = nearest_rank (to_sorted s) pct

let median values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no values";
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The nearest-rank 90th percentile of a handful of floats. *)
let upper_decile values =
  let a = Array.of_list values in
  Array.sort compare a;
  if Array.length a = 0 then invalid_arg "Stats.upper_decile: no values";
  a.(max 0 (((9 * Array.length a) + 9) / 10 - 1))

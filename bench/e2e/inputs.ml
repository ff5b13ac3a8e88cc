(* Seeded inputs. Round [i] of a run with seed [s] draws everything it
   generates (file bytes, request order, arrival times, op order) from
   SplitMix64 seeded by (s, i), so one seed names one run's inputs on
   every machine; the simulated system only ever sees the values.

   What a round asks for in total barely depends on the seed: mixes
   hold their exact shares, sizes are fixed and the offered rate is
   exact, while the seed picks order, interleaving, burstiness and
   contents. That keeps the seed-to-seed spread of every metric well
   inside its bound, yet no two seeds read the same. *)

module Splitmix = Spin_dstruct.Splitmix

type rng = Splitmix.t

let round_rng ~seed ~round = Splitmix.create ~seed:((seed * 1_000_003) + round)

let bytes rng n = Bytes.init n (fun _ -> Char.unsafe_chr (Splitmix.below rng 256))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Splitmix.below rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [n] indices into [weights], each index appearing in its exact share
   (largest remainder rounding), in a seeded order. *)
let exact_mix rng weights n =
  let total = Array.fold_left ( +. ) 0. weights in
  let quota = Array.map (fun w -> float_of_int n *. w /. total) weights in
  let counts = Array.map (fun q -> int_of_float q) quota in
  let short = n - Array.fold_left ( + ) 0 counts in
  let by_remainder =
    List.stable_sort
      (fun i j -> compare (quota.(j) -. Float.of_int counts.(j)) (quota.(i) -. Float.of_int counts.(i)))
      (List.init (Array.length weights) Fun.id) in
  List.iteri (fun rank i -> if rank < short then counts.(i) <- counts.(i) + 1) by_remainder;
  let a = Array.make n 0 and at = ref 0 in
  Array.iteri
    (fun i c ->
       Array.fill a !at c i;
       at := !at + c)
    counts;
  shuffle rng a

(* One draw from lo..hi. *)
let draw rng ~lo ~hi = lo + Splitmix.below rng (hi - lo + 1)

(* [n] draws from lo..hi, every value equally often. *)
let uniform rng ~lo ~hi n =
  Array.map (fun i -> lo + i) (exact_mix rng (Array.make (hi - lo + 1) 1.) n)

(* Zipf(s) popularity over [0, n): item k has weight 1 / (k + 1)^s. *)
let zipf ~n ~s = Array.init n (fun k -> 1. /. (float_of_int (k + 1) ** s))

(* Sizes of [n] files, evenly spaced over [lo, hi] and scattered over
   the popularity ranks by a fixed stride, so the popular files are
   neither all small nor all large. *)
let sizes ~lo ~hi n =
  Array.init n (fun k -> lo + ((hi - lo) * (k * 29 mod n) / max 1 (n - 1)))

(* Poisson arrival offsets (us) for [n] events at [rate] per second,
   rescaled so the last falls exactly at n / rate: the burstiness is
   the seed's, the offered rate is not. *)
let arrivals rng ~rate n =
  let t = ref 0. in
  let a =
    Array.init n (fun _ ->
        t := !t -. log (1. -. Splitmix.float rng);
        !t) in
  let scale = float_of_int n *. 1e6 /. rate /. !t in
  Array.map (fun x -> x *. scale) a

type t = {
  hits : int;
  misses : int;
  bytes_cached : int;
  reclaims : int;
}

let lookups t = t.hits + t.misses

let hit_rate t =
  let n = lookups t in
  if n = 0 then 0. else float_of_int t.hits /. float_of_int n

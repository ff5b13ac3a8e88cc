type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

let next t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let below t n =
  if n <= 1 then 0
  else Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1)
                       (Int64.of_int n))

(* 53 random bits scaled into [0, 1): every double in the range is
   reachable and the mapping is exact, so a seed names one sequence on
   every platform. *)
let float t =
  let bits = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bits /. 9007199254740992.0

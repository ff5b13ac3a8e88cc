type t = {
  bits : Bytes.t;
  nbits : int;
  mutable set_count : int;
}

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative size";
  { bits = Bytes.make ((n + 7) / 8) '\000'; nbits = n; set_count = 0 }

let length t = t.nbits

let check t i =
  if i < 0 || i >= t.nbits then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  Char.code (Bytes.get t.bits (i / 8)) land (1 lsl (i mod 8)) <> 0

let set t i =
  check t i;
  if not (mem t i) then begin
    let b = Char.code (Bytes.get t.bits (i / 8)) in
    Bytes.set t.bits (i / 8) (Char.chr (b lor (1 lsl (i mod 8))));
    t.set_count <- t.set_count + 1
  end

let clear t i =
  check t i;
  if mem t i then begin
    let b = Char.code (Bytes.get t.bits (i / 8)) in
    Bytes.set t.bits (i / 8) (Char.chr (b land lnot (1 lsl (i mod 8)) land 0xff));
    t.set_count <- t.set_count - 1
  end

let count t = t.set_count

let rec lowest_bit b k = if b land (1 lsl k) <> 0 then k else lowest_bit b (k + 1)

(* The lowest clear bit at or after byte [i], a byte at a time. The
   padding past [nbits] is clear, so a "hit" there means none. *)
let rec first_clear t i =
  if i >= Bytes.length t.bits then None
  else
    let b = Char.code (Bytes.unsafe_get t.bits i) lxor 0xff in
    if b = 0 then first_clear t (i + 1)
    else
      let idx = (i * 8) + lowest_bit b 0 in
      if idx < t.nbits then Some idx else None

let find_first_clear t = first_clear t 0

let find_clear_run t k =
  if k <= 0 then invalid_arg "Bitset.find_clear_run: run must be positive";
  let rec scan start run i =
    if run = k then Some start
    else if i >= t.nbits then None
    else if mem t i then scan (i + 1) 0 (i + 1)
    else scan start (run + 1) (i + 1) in
  scan 0 0 0

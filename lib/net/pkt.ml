(* An sk_buff-style packet: one backing buffer allocated with
   headroom, a mutable [off, off+len) live window. Layers push headers
   into the headroom and pull them by advancing the offset; neither
   direction copies the payload. *)

type t = {
  mutable buf : Bytes.t;
  mutable off : int;
  mutable len : int;
}

(* Enough for link (2) + IP (12) + the largest transport header (TCP,
   16) of this stack's wire format, with slack for extensions that
   push their own framing. *)
let default_headroom = 48

let alloc n =
  if n < 0 then invalid_arg "Pkt.alloc";
  { buf = Bytes.create (default_headroom + n); off = default_headroom; len = n }

let of_payload b =
  let t = alloc (Bytes.length b) in
  Bytes.blit b 0 t.buf t.off (Bytes.length b);
  t

let of_frame b = { buf = b; off = 0; len = Bytes.length b }

let empty () = { buf = Bytes.empty; off = 0; len = 0 }

let length t = t.len

let headroom t = t.off

(* Headroom exhausted: migrate into a fresh buffer with a full
   [default_headroom] in front. The only copy in the push path. *)
let grow_headroom t need =
  let headroom = default_headroom + need in
  let buf = Bytes.create (headroom + t.len) in
  Bytes.blit t.buf t.off buf headroom t.len;
  t.buf <- buf;
  t.off <- headroom

let reserve t n =
  if n < 0 then invalid_arg "Pkt.reserve";
  if t.off < n then grow_headroom t n;
  t.off <- t.off - n;
  t.len <- t.len + n;
  t.off

let buffer t = t.buf

let drop t n =
  if n < 0 || n > t.len then invalid_arg "Pkt.drop: short packet";
  t.off <- t.off + n;
  t.len <- t.len - n

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Pkt.truncate";
  t.len <- n

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Pkt.sub";
  { buf = t.buf; off = t.off + pos; len }

let aim t buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Pkt.aim";
  t.buf <- buf;
  t.off <- off;
  t.len <- len

let view t = (t.buf, t.off, t.len)

let get_u8 t i =
  if i < 0 || i >= t.len then invalid_arg "Pkt.get_u8";
  Bytes.get_uint8 t.buf (t.off + i)

let get_u16_le t i =
  if i < 0 || i + 2 > t.len then invalid_arg "Pkt.get_u16_le";
  Bytes.get_uint16_le t.buf (t.off + i)

let get_u32_le t i =
  if i < 0 || i + 4 > t.len then invalid_arg "Pkt.get_u32_le";
  Int32.to_int (Bytes.get_int32_le t.buf (t.off + i))

let get_i64_le t i =
  if i < 0 || i + 8 > t.len then invalid_arg "Pkt.get_i64_le";
  Bytes.get_int64_le t.buf (t.off + i)

let set_u8 t i v =
  if i < 0 || i >= t.len then invalid_arg "Pkt.set_u8";
  Bytes.set_uint8 t.buf (t.off + i) v

let ebc_payload =
  { Spin_core.Ebc.p_buf = buffer; p_off = headroom; p_len = length }

let contents t = Bytes.sub t.buf t.off t.len

let to_string t = Bytes.sub_string t.buf t.off t.len

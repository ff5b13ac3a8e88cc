type t = {
  clock : Clock.t;
  frames : Bytes.t option array;
}

let create clock ~frames =
  if frames <= 0 then invalid_arg "Phys_mem.create: no frames";
  { clock; frames = Array.make frames None }

let frames t = Array.length t.frames

let bytes_total t = Array.length t.frames * Addr.page_size

let frame_bytes t n =
  if n < 0 || n >= Array.length t.frames then
    invalid_arg "Phys_mem: bad frame number";
  match t.frames.(n) with
  | Some b -> b
  | None ->
    let b = Bytes.make Addr.page_size '\000' in
    t.frames.(n) <- Some b;
    b

let charge_copy t len =
  let words = (len + 7) / 8 in
  Clock.charge t.clock (words * (Clock.cost t.clock).Cost.copy_per_word)

let zero_frame t n =
  Bytes.fill (frame_bytes t n) 0 Addr.page_size '\000';
  charge_copy t Addr.page_size

let check_range t ~pa ~len =
  if pa < 0 || len < 0 || pa + len > bytes_total t then
    invalid_arg "Phys_mem: physical range out of bounds"

(* The one span walker, in both directions: copy [len] bytes between
   physical memory at [pa] and [buf] at [off], frame by frame. No
   closure, no intermediate buffer; the caller checks the range. *)
let rec blit_out t ~pa buf off len =
  if len > 0 then begin
    let foff = pa land Addr.page_mask in
    let chunk = min len (Addr.page_size - foff) in
    Bytes.blit (frame_bytes t (Addr.page_of_pa pa)) foff buf off chunk;
    blit_out t ~pa:(pa + chunk) buf (off + chunk) (len - chunk)
  end

let rec blit_in t ~pa buf off len =
  if len > 0 then begin
    let foff = pa land Addr.page_mask in
    let chunk = min len (Addr.page_size - foff) in
    Bytes.blit buf off (frame_bytes t (Addr.page_of_pa pa)) foff chunk;
    blit_in t ~pa:(pa + chunk) buf (off + chunk) (len - chunk)
  end

let read_into t ~pa ~len buf ~pos =
  check_range t ~pa ~len;
  if pos < 0 || pos + len > Bytes.length buf then
    invalid_arg "Phys_mem.read_into: bad buffer range";
  blit_out t ~pa buf pos len;
  charge_copy t len

(* A word inside one frame is read or written in place; one that
   straddles two frames goes through an 8-byte buffer. *)
let in_one_frame pa = pa land Addr.page_mask <= Addr.page_size - 8

let read_word t ~pa =
  check_range t ~pa ~len:8;
  if in_one_frame pa then
    Bytes.get_int64_le (frame_bytes t (Addr.page_of_pa pa))
      (pa land Addr.page_mask)
  else begin
    let b = Bytes.create 8 in
    blit_out t ~pa b 0 8;
    Bytes.get_int64_le b 0
  end

let write_word t ~pa v =
  check_range t ~pa ~len:8;
  if in_one_frame pa then
    Bytes.set_int64_le (frame_bytes t (Addr.page_of_pa pa))
      (pa land Addr.page_mask) v
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    blit_in t ~pa b 0 8
  end

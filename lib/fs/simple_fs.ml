module Disk = Spin_machine.Disk_dev
module Bitset = Spin_dstruct.Bitset

let bs = Disk.block_size
let ndirect = 12
let nindirect = bs / 4                    (* 128 pointers *)
let max_file_blocks = ndirect + nindirect
let max_file_bytes = max_file_blocks * bs
let inode_size = 64
let inodes_per_block = bs / inode_size
let dirent_size = 32
let max_name = dirent_size - 4 - 1        (* name, NUL, inode number *)
let root_inode = 0

type error =
  | No_such_file
  | File_exists
  | No_space
  | File_too_large
  | Name_too_long

exception Fs_error of error

type inode = {
  mutable size : int;
  direct : int array;                     (* block numbers; 0 = hole *)
  mutable indirect : int;                 (* indirect block, 0 = none *)
}

type t = {
  cache : Block_cache.t;
  itable_start : int;
  data_start : int;
  ibitmap : Bitset.t;                     (* in memory only *)
  dbitmap : Bitset.t;                     (* indexed by data block ordinal *)
  scratch : Bytes.t;                      (* one block, for in-place reads *)
  root_direct : int array;                (* the root's direct pointers *)
}

(* ------------------------------------------------------------------ *)
(* On-disk encoding helpers                                           *)
(* ------------------------------------------------------------------ *)

let get32 b off = Int32.to_int (Bytes.get_int32_le b off)
let set32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let encode_inode ino =
  let b = Bytes.make inode_size '\000' in
  set32 b 0 ino.size;
  Array.iteri (fun i blk -> set32 b (4 + (i * 4)) blk) ino.direct;
  set32 b (4 + (ndirect * 4)) ino.indirect;
  b

let decode_inode b off =
  let direct = Array.make ndirect 0 in
  for i = 0 to ndirect - 1 do
    direct.(i) <- get32 b (off + 4 + (i * 4))
  done;
  { size = get32 b off; direct; indirect = get32 b (off + 4 + (ndirect * 4)) }

(* ------------------------------------------------------------------ *)
(* Metadata I/O                                                       *)
(* ------------------------------------------------------------------ *)

(* In-place reads. A lookup, a size read, an inode read and an
   indirect pointer go through [t.scratch], one block-sized buffer per
   file system, instead of a fresh block per read. The strands that
   share it switch only where a call blocks, and a
   [Block_cache.read_into] miss blocks on the disk; so the invariant
   is: no scratch contents are relied on across a call that can block.
   Each block is read, then its fields are taken before the next
   read.

   A directory scan needs the root's block pointers across its block
   reads, so it keeps them in [t.root_direct]. A concurrent scan may
   refill that from its own read of the root inode; this is safe
   because a pointer inside the directory's size never changes (the
   root is never truncated, and entries are only appended), and a
   scan reads only pointers inside the size it read. *)

let read_scratch t block = Block_cache.read_into t.cache ~block t.scratch ~pos:0

let inode_block t i = t.itable_start + (i / inodes_per_block)
let inode_off i = (i mod inodes_per_block) * inode_size

let read_inode t i =
  read_scratch t (inode_block t i);
  decode_inode t.scratch (inode_off i)

let write_inode t i ino =
  let block = t.itable_start + (i / inodes_per_block) in
  let data = Block_cache.read t.cache ~block in
  Bytes.blit (encode_inode ino) 0 data ((i mod inodes_per_block) * inode_size)
    inode_size;
  Block_cache.write t.cache ~block data

let alloc_inode t =
  match Bitset.find_first_clear t.ibitmap with
  | None -> raise (Fs_error No_space)
  | Some i ->
    Bitset.set t.ibitmap i;
    i

let alloc_data_block t =
  match Bitset.find_first_clear t.dbitmap with
  | None -> raise (Fs_error No_space)
  | Some ordinal ->
    Bitset.set t.dbitmap ordinal;
    t.data_start + ordinal

let free_data_block t block =
  if block >= t.data_start then Bitset.clear t.dbitmap (block - t.data_start)

(* ------------------------------------------------------------------ *)
(* Block mapping through an inode                                     *)
(* ------------------------------------------------------------------ *)

let indirect_table t ino =
  if ino.indirect = 0 then None
  else Some (Block_cache.read t.cache ~block:ino.indirect)

(* The disk block of the inode's [n]th, 0 for a hole. *)
let block_of t ino n =
  if n < ndirect then ino.direct.(n)
  else if n >= max_file_blocks then raise (Fs_error File_too_large)
  else if ino.indirect = 0 then 0
  else begin
    read_scratch t ino.indirect;
    get32 t.scratch ((n - ndirect) * 4)
  end

let ensure_block t ino n =
  match block_of t ino n with
  | 0 ->
    let blk = alloc_data_block t in
    if n < ndirect then ino.direct.(n) <- blk
    else begin
      if ino.indirect = 0 then begin
        ino.indirect <- alloc_data_block t;
        Block_cache.write t.cache ~block:ino.indirect (Bytes.make bs '\000')
      end;
      let table = Block_cache.read t.cache ~block:ino.indirect in
      set32 table ((n - ndirect) * 4) blk;
      Block_cache.write t.cache ~block:ino.indirect table
    end;
    blk
  | blk -> blk

let truncate_inode t ino =
  for n = 0 to ndirect - 1 do
    if ino.direct.(n) <> 0 then begin
      free_data_block t ino.direct.(n);
      ino.direct.(n) <- 0
    end
  done;
  (match indirect_table t ino with
   | Some table ->
     for i = 0 to nindirect - 1 do
       let blk = get32 table (i * 4) in
       if blk <> 0 then free_data_block t blk
     done;
     free_data_block t ino.indirect;
     ino.indirect <- 0
   | None -> ());
  ino.size <- 0

(* ------------------------------------------------------------------ *)
(* Inode-level read and write                                         *)
(* ------------------------------------------------------------------ *)

(* The inode's whole contents. A directory is read through the buffer
   cache; a file read goes around it ([cached:false]), each block
   copied straight into the result. *)
let read_inode_data t ~cached ino =
  let len = ino.size in
  let out = Bytes.create len in
  for n = 0 to ((len + bs - 1) / bs) - 1 do
    let pos = n * bs in
    let chunk = min (len - pos) bs in
    match block_of t ino n with
    | 0 -> ()                             (* hole reads as zeros *)
    | block ->
      if cached then Bytes.blit (Block_cache.read t.cache ~block) 0 out pos chunk
      else Block_cache.read_uncached t.cache ~block out ~pos ~len:chunk
  done;
  out

let write_inode_data t ino ~off data =
  let len = Bytes.length data in
  if off + len > max_file_bytes then raise (Fs_error File_too_large);
  let rec loop pos =
    if pos < len then begin
      let file_off = off + pos in
      let n = file_off / bs and boff = file_off mod bs in
      let chunk = min (len - pos) (bs - boff) in
      let block = ensure_block t ino n in
      let cur =
        if chunk = bs then Bytes.make bs '\000'
        else Block_cache.read t.cache ~block in
      Bytes.blit data pos cur boff chunk;
      Block_cache.write t.cache ~block cur;
      loop (pos + chunk)
    end in
  loop 0;
  ino.size <- max ino.size (off + len)

(* ------------------------------------------------------------------ *)
(* Directory (single root)                                            *)
(* ------------------------------------------------------------------ *)

let dirent_name data off =
  let rec name_len i = if i >= max_name || Bytes.get data (off + i) = '\000'
    then i else name_len (i + 1) in
  let len = name_len 0 in
  if len = 0 then None else Some (Bytes.sub_string data off len)

let list_files t =
  let root = read_inode t root_inode in
  let data = read_inode_data t ~cached:true root in
  let rec loop off acc =
    if off + dirent_size > Bytes.length data then List.rev acc
    else
      match dirent_name data off with
      | Some e -> loop (off + dirent_size) (e :: acc)
      | None -> loop (off + dirent_size) acc in
  loop 0 []

(* Whether the dirent at [off] names [name], compared in place over
   the directory bytes: it matches [dirent_name] (stops at the
   first NUL or at [max_name]) without building it. *)
let rec dirent_names data off name i =
  if i = String.length name then
    i > 0 && (i = max_name || Bytes.get data (off + i) = '\000')
  else
    i < max_name
    && (let c = Bytes.get data (off + i) in c <> '\000' && c = name.[i])
    && dirent_names data off name (i + 1)

(* The size field of inode [i]. *)
let inode_size_of t i =
  read_scratch t (inode_block t i);
  get32 t.scratch (inode_off i)

(* The inode number of the first entry naming [name] among the
   scratch's first [limit] bytes, or -1. *)
let rec find_in_scratch t name limit off =
  if off + dirent_size > limit then -1
  else if dirent_names t.scratch off name 0 then
    get32 t.scratch (off + dirent_size - 4)
  else find_in_scratch t name limit (off + dirent_size)

(* The inode number [name] maps to, or -1. It reads exactly the blocks
   [read_inode_data] would read for the whole directory, in the same
   order, and scans each in place. *)
let dir_find t name =
  read_scratch t (inode_block t root_inode);
  let ioff = inode_off root_inode in
  let size = get32 t.scratch ioff in
  let indirect = get32 t.scratch (ioff + 4 + (ndirect * 4)) in
  let nblocks = (size + bs - 1) / bs in
  for n = 0 to min ndirect nblocks - 1 do
    t.root_direct.(n) <- get32 t.scratch (ioff + 4 + (n * 4))
  done;
  let found = ref (-1) in
  for n = 0 to nblocks - 1 do
    let block =
      if n < ndirect then t.root_direct.(n)
      else if indirect = 0 then 0
      else begin
        read_scratch t indirect;
        get32 t.scratch ((n - ndirect) * 4)
      end in
    (* A hole reads as zeros, which name nothing. *)
    if block <> 0 then begin
      read_scratch t block;
      if !found < 0 then
        found := find_in_scratch t name (min bs (size - (n * bs))) 0
    end
  done;
  !found

let dir_add t name inum =
  if String.length name > max_name then raise (Fs_error Name_too_long);
  let root = read_inode t root_inode in
  let entry = Bytes.make dirent_size '\000' in
  Bytes.blit_string name 0 entry 0 (String.length name);
  set32 entry (dirent_size - 4) inum;
  write_inode_data t root ~off:root.size entry;
  write_inode t root_inode root

(* ------------------------------------------------------------------ *)
(* Public interface                                                   *)
(* ------------------------------------------------------------------ *)

(* Inodes a fresh file system gets. *)
let format_inodes = 512

let format cache ~blocks () =
  let ninodes = format_inodes in
  (* Blocks 1..k are reserved and never written, as block 0 is: room
     for an inode bitmap block and a data bitmap of one bit per device
     block. The allocation maps live in memory alone, but dropping the
     reserve would shift every data block against the buffer cache's
     8-block pages. *)
  let itable_start = 2 + ((((blocks + 7) / 8) + bs - 1) / bs) in
  let itable_blocks = (ninodes + inodes_per_block - 1) / inodes_per_block in
  let data_start = itable_start + itable_blocks in
  if data_start + 8 > blocks then invalid_arg "Simple_fs.format: too few blocks";
  let ibitmap = Bitset.create ninodes in
  let dbitmap = Bitset.create (blocks - data_start) in
  let t =
    { cache; itable_start; data_start; ibitmap; dbitmap;
      scratch = Bytes.create bs; root_direct = Array.make ndirect 0 } in
  (* Root directory: inode 0, empty. *)
  Bitset.set ibitmap root_inode;
  (* Zero the inode table. *)
  for i = 0 to itable_blocks - 1 do
    Block_cache.write cache ~block:(itable_start + i) (Bytes.make bs '\000')
  done;
  write_inode t root_inode { size = 0; direct = Array.make ndirect 0; indirect = 0 };
  t

let lookup_exn t name =
  let inum = dir_find t name in
  if inum < 0 then raise (Fs_error No_such_file) else inum

let exists t ~name = dir_find t name >= 0

let create t ~name =
  if String.length name > max_name then raise (Fs_error Name_too_long);
  if exists t ~name then raise (Fs_error File_exists);
  let inum = alloc_inode t in
  write_inode t inum { size = 0; direct = Array.make ndirect 0; indirect = 0 };
  dir_add t name inum

let write t ~name data =
  let inum = lookup_exn t name in
  let ino = read_inode t inum in
  truncate_inode t ino;
  write_inode_data t ino ~off:0 data;
  write_inode t inum ino

let read t ~name =
  read_inode_data t ~cached:false (read_inode t (lookup_exn t name))

let size t ~name = inode_size_of t (lookup_exn t name)

let free_blocks t = Bitset.length t.dbitmap - Bitset.count t.dbitmap

let block_size = 512

type completion =
  | Read_done of { block : int; data : Bytes.t }
  | Write_done of { block : int }

type op =
  | Read of { block : int; count : int }
  | Write of { block : int; data : Bytes.t }

type t = {
  sim : Sim.t;
  intr : Intr.t;
  line : int;
  nblocks : int;
  store : (int, Bytes.t) Hashtbl.t;
  queue : op Queue.t;
  completions : completion Queue.t;
  mutable busy : bool;
  mutable head : int;            (* block after the last access *)
  mutable reads : int;
  mutable writes : int;
}

(* HP C2247-300: ~10 ms average seek, 5400 rpm, ~2.5 MB/s sustained. *)
let seek_us = 10_000.
let rotation_us = 5_600.
let bytes_per_us = 2.5

let create sim intr ~line ~blocks =
  if blocks <= 0 then invalid_arg "Disk_dev.create: no blocks";
  { sim; intr; line; nblocks = blocks;
    store = Hashtbl.create 1024; queue = Queue.create ();
    completions = Queue.create (); busy = false; head = 0;
    reads = 0; writes = 0 }

let line t = t.line

let check_range t block count =
  if block < 0 || count <= 0 || block + count > t.nblocks then
    invalid_arg "Disk_dev: block range out of bounds"

let block_data t b =
  match Hashtbl.find_opt t.store b with
  | Some data -> data
  | None ->
    let data = Bytes.make block_size '\000' in
    Hashtbl.replace t.store b data;
    data

let service_us t ~block ~count =
  let positioning = if block = t.head then 0. else seek_us +. (rotation_us /. 2.) in
  positioning +. (float_of_int (count * block_size) /. bytes_per_us)

let rec start_next t =
  if not t.busy then
    match Queue.take_opt t.queue with
    | None -> ()
    | Some op ->
      t.busy <- true;
      let block, count =
        match op with
        | Read { block; count } -> block, count
        | Write { block; data } -> block, Bytes.length data / block_size in
      let us = service_us t ~block ~count in
      ignore (Sim.after_us t.sim us (fun () -> complete t op block count))

and complete t op block count =
  (match op with
   | Read _ ->
     t.reads <- t.reads + 1;
     let data = Bytes.create (count * block_size) in
     for i = 0 to count - 1 do
       Bytes.blit (block_data t (block + i)) 0 data (i * block_size) block_size
     done;
     Queue.add (Read_done { block; data }) t.completions
   | Write { data; _ } ->
     t.writes <- t.writes + 1;
     for i = 0 to count - 1 do
       Bytes.blit data (i * block_size) (block_data t (block + i)) 0 block_size
     done;
     Queue.add (Write_done { block }) t.completions);
  t.head <- block + count;
  t.busy <- false;
  Intr.post t.intr ~line:t.line;
  start_next t

let submit_read t ~block ~count =
  check_range t block count;
  Queue.add (Read { block; count }) t.queue;
  start_next t

let submit_write t ~block data =
  let len = Bytes.length data in
  if len = 0 || len mod block_size <> 0 then
    invalid_arg "Disk_dev.submit_write: data must be whole blocks";
  check_range t block (len / block_size);
  Queue.add (Write { block; data = Bytes.copy data }) t.queue;
  start_next t

let take_completion t = Queue.take_opt t.completions

let in_flight t = Queue.length t.queue + (if t.busy then 1 else 0)

let reads t = t.reads

let writes t = t.writes

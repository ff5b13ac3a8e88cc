let block_size = 512

(* A request. A read stores its block into [buf] at [pos]; a write's
   [buf] is the device's own copy of the data, [count] blocks long. *)
type request = {
  mutable write : bool;
  mutable block : int;
  mutable count : int;
  mutable buf : Bytes.t;
  mutable pos : int;
}

type t = {
  sim : Sim.t;
  intr : Intr.t;
  line : int;
  nblocks : int;
  store : (int, Bytes.t) Hashtbl.t;
  queue : request Queue.t;       (* submitted while busy, FIFO *)
  service : request;             (* the request in service, reused *)
  mutable busy : bool;
  (* The service timer: its handle is built at the first request and
     re-armed by every later one; [complete] is built at creation. *)
  mutable timer : Sim.handle option;
  mutable complete : unit -> unit;
  (* Finished requests' blocks, oldest first: [finished_count] entries
     of a ring from [finished_first], doubled when full. *)
  mutable finished : int array;
  mutable finished_first : int;
  mutable finished_count : int;
  sequential_block : int;        (* one block's service, in cycles *)
  random_block : int;
  mutable head : int;            (* block after the last access *)
  mutable reads : int;
  mutable writes : int;
}

(* HP C2247-300: ~10 ms average seek, 5400 rpm, ~2.5 MB/s sustained. *)
let seek_us = 10_000.
let rotation_us = 5_600.
let bytes_per_us = 2.5

let line t = t.line

let check_range t block count =
  if block < 0 || count <= 0 || block + count > t.nblocks then
    invalid_arg "Disk_dev: block range out of bounds"

let block_data t b =
  match Hashtbl.find t.store b with
  | data -> data
  | exception Not_found ->
    let data = Bytes.make block_size '\000' in
    Hashtbl.replace t.store b data;
    data

let service_us ~sequential ~count =
  let positioning = if sequential then 0. else seek_us +. (rotation_us /. 2.) in
  positioning +. (float_of_int (count * block_size) /. bytes_per_us)

let to_cycles sim us = Cost.us_to_cycles (Clock.cost (Sim.clock sim)) us

(* Service time in cycles. A one-block request's two times are
   converted once, at creation: a float passed to a call is boxed. *)
let service_cycles t ~block ~count =
  let sequential = block = t.head in
  if count = 1 then
    if sequential then t.sequential_block else t.random_block
  else to_cycles t.sim (service_us ~sequential ~count)

let push_finished t block =
  let n = Array.length t.finished in
  if t.finished_count = n then begin
    let grown = Array.make (max 4 (2 * n)) 0 in
    for i = 0 to n - 1 do
      grown.(i) <- t.finished.((t.finished_first + i) mod n)
    done;
    t.finished <- grown;
    t.finished_first <- 0
  end;
  t.finished.((t.finished_first + t.finished_count) mod Array.length t.finished)
  <- block;
  t.finished_count <- t.finished_count + 1

let start t ~write ~block ~count buf ~pos =
  let r = t.service in
  r.write <- write;
  r.block <- block;
  r.count <- count;
  r.buf <- buf;
  r.pos <- pos;
  t.busy <- true;
  let delta = service_cycles t ~block ~count in
  match t.timer with
  | Some h -> Sim.rearm t.sim h delta t.complete
  | None -> t.timer <- Some (Sim.after t.sim delta t.complete)

let start_next t =
  if not (t.busy || Queue.is_empty t.queue) then begin
    let q = Queue.take t.queue in
    start t ~write:q.write ~block:q.block ~count:q.count q.buf ~pos:q.pos
  end

let finish t =
  let r = t.service in
  if r.write then begin
    t.writes <- t.writes + 1;
    for i = 0 to r.count - 1 do
      Bytes.blit r.buf (i * block_size) (block_data t (r.block + i)) 0 block_size
    done
  end else begin
    t.reads <- t.reads + 1;
    Bytes.blit (block_data t r.block) 0 r.buf r.pos block_size
  end;
  r.buf <- Bytes.empty;                   (* the reader's, not ours *)
  push_finished t r.block;
  t.head <- r.block + r.count;
  t.busy <- false;
  Intr.post t.intr ~line:t.line;
  start_next t

let create sim intr ~line ~blocks =
  if blocks <= 0 then invalid_arg "Disk_dev.create: no blocks";
  let t =
    { sim; intr; line; nblocks = blocks;
      store = Hashtbl.create 1024; queue = Queue.create ();
      service = { write = false; block = 0; count = 0; buf = Bytes.empty; pos = 0 };
      busy = false; timer = None; complete = ignore;
      finished = [||]; finished_first = 0; finished_count = 0;
      sequential_block = to_cycles sim (service_us ~sequential:true ~count:1);
      random_block = to_cycles sim (service_us ~sequential:false ~count:1);
      head = 0; reads = 0; writes = 0 } in
  t.complete <- (fun () -> finish t);
  t

(* FIFO: a request goes straight into service only when the device is
   idle and nothing waits ahead of it. *)
let submit t ~write ~block ~count buf ~pos =
  if t.busy || not (Queue.is_empty t.queue) then begin
    Queue.add { write; block; count; buf; pos } t.queue;
    start_next t
  end
  else start t ~write ~block ~count buf ~pos

let submit_read t ~block buf ~pos =
  check_range t block 1;
  if pos < 0 || pos + block_size > Bytes.length buf then
    invalid_arg "Disk_dev.submit_read: buffer too short";
  submit t ~write:false ~block ~count:1 buf ~pos

let submit_write t ~block data =
  let len = Bytes.length data in
  if len = 0 || len mod block_size <> 0 then
    invalid_arg "Disk_dev.submit_write: data must be whole blocks";
  check_range t block (len / block_size);
  submit t ~write:true ~block ~count:(len / block_size) (Bytes.copy data) ~pos:0

let take_completion t =
  if t.finished_count = 0 then -1
  else begin
    let block = t.finished.(t.finished_first) in
    t.finished_first <- (t.finished_first + 1) mod Array.length t.finished;
    t.finished_count <- t.finished_count - 1;
    block
  end

let in_flight t = Queue.length t.queue + (if t.busy then 1 else 0)

let reads t = t.reads

let writes t = t.writes

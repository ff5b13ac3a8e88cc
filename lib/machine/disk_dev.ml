let block_size = 512

(* A request on one block: a read fills [buf], a write stores it. *)
type request = {
  mutable write : bool;
  mutable block : int;
  mutable buf : Bytes.t;
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
  (* The service timer and what it fires, both built at creation. *)
  timer : Sim.timer;
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

let block_data t b =
  match Hashtbl.find t.store b with
  | data -> data
  | exception Not_found ->
    let data = Bytes.make block_size '\000' in
    Hashtbl.replace t.store b data;
    data

(* A block's service time in cycles, converted once, at creation. *)
let service_cycles sim ~sequential =
  let positioning = if sequential then 0. else seek_us +. (rotation_us /. 2.) in
  Cost.us_to_cycles (Clock.cost (Sim.clock sim))
    (positioning +. (float_of_int block_size /. bytes_per_us))

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

let start t ~write ~block buf =
  let r = t.service in
  r.write <- write;
  r.block <- block;
  r.buf <- buf;
  t.busy <- true;
  Sim.arm t.sim t.timer
    (if block = t.head then t.sequential_block else t.random_block)
    t.complete

let start_next t =
  if not (t.busy || Queue.is_empty t.queue) then begin
    let q = Queue.take t.queue in
    start t ~write:q.write ~block:q.block q.buf
  end

let finish t =
  let r = t.service in
  if r.write then begin
    t.writes <- t.writes + 1;
    Bytes.blit r.buf 0 (block_data t r.block) 0 block_size
  end else begin
    t.reads <- t.reads + 1;
    Bytes.blit (block_data t r.block) 0 r.buf 0 block_size
  end;
  r.buf <- Bytes.empty;                   (* the submitter's, not ours *)
  push_finished t r.block;
  t.head <- r.block + 1;
  t.busy <- false;
  Intr.post t.intr ~line:t.line;
  start_next t

let create sim intr ~line ~blocks =
  if blocks <= 0 then invalid_arg "Disk_dev.create: no blocks";
  let t =
    { sim; intr; line; nblocks = blocks;
      store = Hashtbl.create 1024; queue = Queue.create ();
      service = { write = false; block = 0; buf = Bytes.empty };
      busy = false; timer = Sim.timer sim; complete = ignore;
      finished = [||]; finished_first = 0; finished_count = 0;
      sequential_block = service_cycles sim ~sequential:true;
      random_block = service_cycles sim ~sequential:false;
      head = 0; reads = 0; writes = 0 } in
  t.complete <- (fun () -> finish t);
  t

(* FIFO: a request goes straight into service only when the device is
   idle and nothing waits ahead of it. *)
let submit t ~write ~block buf =
  if block < 0 || block >= t.nblocks then
    invalid_arg "Disk_dev.submit: block out of bounds";
  if Bytes.length buf <> block_size then
    invalid_arg "Disk_dev.submit: not one block";
  if t.busy || not (Queue.is_empty t.queue) then begin
    Queue.add { write; block; buf } t.queue;
    start_next t
  end
  else start t ~write ~block buf

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

module Dllist = Spin_dstruct.Dllist

type channel = int

type t = {
  sched : Sched.t;
  channels : (channel, Strand.t Dllist.t) Hashtbl.t;
}

let create sched = { sched; channels = Hashtbl.create 64 }

let queue_of t ch =
  match Hashtbl.find_opt t.channels ch with
  | Some q -> q
  | None ->
    let q = Dllist.create () in
    Hashtbl.replace t.channels ch q;
    q

let kernel_thread t body = Kthread.fork t.sched ~name:"osf-kthread" body

let charge t =
  let clock = Sched.clock t.sched in
  Spin_machine.(Clock.charge clock (Clock.cost clock).Cost.kthread_sync)

let thread_sleep t ch =
  charge t;
  let me = Sched.self t.sched in
  ignore (Dllist.push_back (queue_of t ch) me);
  Sched.block_current t.sched

let thread_wakeup t ch =
  charge t;
  let q = queue_of t ch in
  let rec wake n =
    match Dllist.pop_front q with
    | None -> n
    | Some s -> Sched.unblock t.sched s; wake (n + 1) in
  wake 0

let thread_wakeup_one t ch =
  charge t;
  match Dllist.pop_front (queue_of t ch) with
  | None -> false
  | Some s -> Sched.unblock t.sched s; true

let sleepers t ch = Dllist.length (queue_of t ch)

module Clock = Spin_machine.Clock
module Dllist = Spin_dstruct.Dllist

type t = { strand : Strand.t }

let charge sched =
  let clock = Sched.clock sched in
  Clock.charge clock (Clock.cost clock).Spin_machine.Cost.kthread_sync

(* Every wait links the caller's one wait node, so a wait allocates
   nothing. [enter] links it at the back of [q]; [sleep] blocks until
   a wakeup, and unlinks the node if that wakeup came from elsewhere
   than a pop of [q]: a strand waits on one queue at most. *)
let enter q me =
  let n = Strand.wait_node me in
  Dllist.link_back q n;
  n

let sleep sched q n =
  Sched.block_current sched;
  Dllist.remove q n

let fork sched ?(name = "kthread") body =
  { strand = Sched.spawn sched ~owner:"Kthread" ~name body }

let alive t = t.strand.Strand.state <> Strand.Dead

let failure t = t.strand.Strand.failure

(* The joiners list is built at the first join: few strands have one. *)
let join sched t =
  charge sched;
  if t.strand.Strand.joiners == Strand.no_joiners then
    t.strand.Strand.joiners <- Dllist.create ();
  let q = t.strand.Strand.joiners in
  while alive t do
    sleep sched q (enter q (Sched.self sched))
  done

module Mutex = struct
  type m = {
    mutable holder : int;                 (* strand id; [free] when none *)
    waiters : Strand.t Dllist.t;
  }

  let free = 0                            (* strand ids start at 1 *)

  let create () = { holder = free; waiters = Dllist.create () }

  let rec lock sched m =
    charge sched;
    let me = Sched.self sched in
    if m.holder = free then m.holder <- me.Strand.id
    else begin
      sleep sched m.waiters (enter m.waiters me);
      (* Woken by unlock, the lock was handed to us; any other wakeup
         retries. *)
      if m.holder <> me.Strand.id then lock sched m
    end

  let unlock sched m =
    charge sched;
    if m.holder <> (Sched.self sched).Strand.id then
      invalid_arg "Kthread.Mutex.unlock: not the holder";
    match Dllist.pop_front m.waiters with
    | None -> m.holder <- free
    | Some n ->
      let next = Dllist.value n in
      m.holder <- next.Strand.id;         (* direct hand-off *)
      Sched.unblock sched next

  let with_lock sched m f =
    lock sched m;
    Fun.protect ~finally:(fun () -> unlock sched m) f
end

module Condition = struct
  type c = { waiters : Strand.t Dllist.t }

  let create () = { waiters = Dllist.create () }

  let wait sched m c =
    charge sched;
    let n = enter c.waiters (Sched.self sched) in
    Mutex.unlock sched m;
    sleep sched c.waiters n;
    Mutex.lock sched m

  let signal sched c =
    charge sched;
    match Dllist.pop_front c.waiters with
    | None -> ()
    | Some n -> Sched.unblock sched (Dllist.value n)

  let broadcast sched c =
    charge sched;
    let rec wake () =
      match Dllist.pop_front c.waiters with
      | None -> ()
      | Some n -> Sched.unblock sched (Dllist.value n); wake () in
    wake ()

  let waiters c = Dllist.length c.waiters
end

module Clock = Spin_machine.Clock
module Dllist = Spin_dstruct.Dllist

type t = { strand : Strand.t }

let charge sched =
  let clock = Sched.clock sched in
  Clock.charge clock (Clock.cost clock).Spin_machine.Cost.kthread_sync

let fork sched ?(name = "kthread") body =
  { strand = Sched.spawn sched ~owner:"Kthread" ~name body }

let alive t = t.strand.Strand.state <> Strand.Dead

let failure t = t.strand.Strand.failure

let join sched t =
  charge sched;
  while alive t do
    let me = Sched.self sched in
    ignore (Dllist.push_back t.strand.Strand.joiners me);
    Sched.block_current sched
  done

module Mutex = struct
  type m = {
    mutable holder : Strand.t option;
    waiters : Strand.t Dllist.t;
  }

  let create () = { holder = None; waiters = Dllist.create () }

  let rec lock sched m =
    charge sched;
    match m.holder with
    | None -> m.holder <- Some (Sched.self sched)
    | Some _ ->
      let me = Sched.self sched in
      ignore (Dllist.push_back m.waiters me);
      Sched.block_current sched;
      (* Woken by unlock, the lock was handed to us; any other wakeup
         retries. *)
      if not (match m.holder with
              | Some h -> h.Strand.id = me.Strand.id
              | None -> false)
      then lock sched m

  let unlock sched m =
    charge sched;
    let me = Sched.self sched in
    (match m.holder with
     | Some h when h.Strand.id = me.Strand.id -> ()
     | Some _ | None -> invalid_arg "Kthread.Mutex.unlock: not the holder");
    match Dllist.pop_front m.waiters with
    | None -> m.holder <- None
    | Some next ->
      m.holder <- Some next;              (* direct hand-off *)
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
    let me = Sched.self sched in
    ignore (Dllist.push_back c.waiters me);
    Mutex.unlock sched m;
    Sched.block_current sched;
    Mutex.lock sched m

  let signal sched c =
    charge sched;
    match Dllist.pop_front c.waiters with
    | None -> ()
    | Some s -> Sched.unblock sched s

  let broadcast sched c =
    charge sched;
    let rec wake () =
      match Dllist.pop_front c.waiters with
      | None -> ()
      | Some s -> Sched.unblock sched s; wake () in
    wake ()

  let waiters c = Dllist.length c.waiters
end

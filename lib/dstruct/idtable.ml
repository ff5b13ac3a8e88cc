type 'a t = {
  mutable slots : 'a option array;
  mutable free : int list;
  mutable next : int;           (* first never-used slot *)
  mutable live : int;
}

let create () = { slots = Array.make 16 None; free = []; next = 0; live = 0 }

let ensure t i =
  let cap = Array.length t.slots in
  if i >= cap then begin
    let nslots = Array.make (max (2 * cap) (i + 1)) None in
    Array.blit t.slots 0 nslots 0 cap;
    t.slots <- nslots
  end

let insert t v =
  let i =
    match t.free with
    | i :: rest -> t.free <- rest; i
    | [] -> let i = t.next in t.next <- i + 1; i in
  ensure t i;
  t.slots.(i) <- Some v;
  t.live <- t.live + 1;
  i

let lookup t i =
  if i < 0 || i >= Array.length t.slots then None else t.slots.(i)

let remove t i =
  if i >= 0 && i < Array.length t.slots then
    match t.slots.(i) with
    | None -> ()
    | Some _ ->
      t.slots.(i) <- None;
      t.free <- i :: t.free;
      t.live <- t.live - 1

let length t = t.live

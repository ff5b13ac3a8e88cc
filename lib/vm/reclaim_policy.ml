module Dispatcher = Spin_core.Dispatcher

let select_second_chance phys (_ : Phys_addr.victim_request) =
  let oldest_first = List.rev (Phys_addr.live_pages phys) in
  let rec scan = function
    | [] ->
      (* Everything was referenced and got its second chance; fall
         back to plain FIFO. *)
      (match oldest_first with [] -> None | oldest :: _ -> Some oldest)
    | p :: rest ->
      if Phys_addr.referenced phys p then begin
        Phys_addr.clear_referenced phys p;
        scan rest
      end
      else Some p in
  scan oldest_first

let install_second_chance phys =
  Dispatcher.ok_exn ~site:"Reclaim_policy.install_second_chance"
    (Dispatcher.install (Phys_addr.select_victim_event phys)
       ~installer:"SecondChance" (select_second_chance phys))

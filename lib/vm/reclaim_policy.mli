(** Replaceable page-replacement policy.

    Policies are ordinary dispatcher handlers on the physical address
    service's [SelectVictim] event, so replacing the policy works the
    way replacing [Sched] does: install a later handler and the
    last-result-wins combine makes it authoritative. {!Vm.create} and
    the network hosts install {!install_second_chance} as the system
    default; an extension narrows a policy to its own allocations with
    a guard on the request's [requester]. *)

val install_second_chance :
  Phys_addr.t ->
  (Phys_addr.victim_request, Phys_addr.page option) Spin_core.Dispatcher.handler
(** Classic clock/second-chance over the service's live list, oldest
    first: a referenced page loses its bit and is skipped once; the
    first unreferenced page is the victim; when every page was
    referenced the oldest goes. *)

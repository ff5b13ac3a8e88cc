(* Quickstart: the Gatekeeper/Console scenario of the paper's Figure 1,
   on a booted SPIN kernel.

     dune exec examples/quickstart.exe

   A Console service exports its interface through a protection
   domain; a Gatekeeper extension is dynamically linked against
   SpinPublic and calls the service through its patched import — a
   protected in-kernel call that costs a procedure call. *)

module Kernel = Spin.Kernel
module Dispatcher = Spin_core.Dispatcher
module Kdomain = Spin_core.Kdomain
module Object_file = Spin_core.Object_file
module Symbol = Spin_core.Symbol
module Ty = Spin_core.Ty
module Univ = Spin_core.Univ
module Capability = Spin_core.Capability
module Console_dev = Spin_machine.Console_dev
module Machine = Spin_machine.Machine

let write_ty = Ty.Proc ([ Ty.Opaque "Console.T"; Ty.Text ], Ty.Unit)
let open_ty = Ty.Proc ([], Ty.Opaque "Console.T")

type console_t = string Capability.t
(* Console.T is opaque: a capability for the console device. *)

let () =
  print_endline "== SPIN quickstart: extensions, domains, events ==";
  let k = Kernel.boot ~name:"quickstart" () in
  let machine = k.Kernel.machine in

  (* --- The Console service module ------------------------------- *)
  let open_tag : (unit -> console_t) Univ.tag = Univ.tag ~name:"Console.Open" () in
  let write_tag : (console_t -> string -> unit) Univ.tag =
    Univ.tag ~name:"Console.Write" () in
  (* Console.Write is an event: the module's procedure is its default
     implementation. *)
  let write_event =
    Dispatcher.declare k.Kernel.dispatcher ~name:"Console.Write" ~owner:"Console"
      (fun (cap, msg) ->
        (* Only valid capabilities reach the device. *)
        match Capability.deref_opt cap with
        | Some _ -> Console_dev.puts machine.Machine.console msg
        | None -> ()) in
  let console_domain =
    Kdomain.create_from_module ~name:"Console"
      ~exports:[
        (Symbol.make ~intf:"Console" ~name:"Open" open_ty,
         Univ.pack open_tag (fun () -> Capability.mint ~owner:"Console" "console0"));
        (Symbol.make ~intf:"Console" ~name:"Write" write_ty,
         Univ.pack write_tag (fun cap msg ->
           Dispatcher.raise_event write_event (cap, msg)));
      ] in
  Kernel.publish k ~name:"ConsoleService" console_domain;
  Printf.printf "published ConsoleService (%d symbols in SpinPublic)\n"
    (List.length (Kdomain.exports k.Kernel.public));

  (* --- The Gatekeeper extension --------------------------------- *)
  let b = Object_file.Builder.create ~name:"gatekeeper.o"
      ~safety:Object_file.Compiler_signed () in
  let open_cell = Object_file.Builder.import b
      (Symbol.make ~intf:"Console" ~name:"Open" open_ty) in
  let write_cell = Object_file.Builder.import b
      (Symbol.make ~intf:"Console" ~name:"Write" write_ty) in
  Object_file.Builder.set_init b (fun () ->
    let open_ = Option.get (Univ.unpack open_tag (Option.get !open_cell)) in
    let write = Option.get (Univ.unpack write_tag (Option.get !write_cell)) in
    (* IntruderAlert: open a capability, write through it, and show
       that a revoked capability goes nowhere. *)
    let c = open_ () in
    write c "Intruder Alert\n";
    Capability.revoke c;
    write c "this message is dropped: dead capability\n");
  (match Kernel.load_extension k (Object_file.Builder.build b) with
   | Ok d ->
     Printf.printf "loaded gatekeeper.o; fully resolved: %b\n"
       (Kdomain.fully_resolved d)
   | Error e -> failwith (Kdomain.error_to_string e));

  Printf.printf "console output: %S\n"
    (Console_dev.output machine.Machine.console);

  (* --- A passive monitoring extension --------------------------- *)
  let writes = ref 0 in
  ignore
    (Dispatcher.ok_exn ~site:"quickstart"
       (Dispatcher.install write_event ~installer:"Monitor"
          (fun _ -> incr writes)));
  let c = Capability.mint ~owner:"Console" "console0" in
  Dispatcher.raise_event write_event (c, "one more line\n");
  Printf.printf "monitor extension observed %d write event(s)\n" !writes;

  (* --- Cost of the protected in-kernel call --------------------- *)
  let e = Dispatcher.declare k.Kernel.dispatcher ~name:"Svc.Null" ~owner:"Svc"
      (fun () -> ()) in
  let us = Kernel.stamp_us k (fun () -> Dispatcher.raise_event e ()) in
  Printf.printf "protected in-kernel call: %.2f us (paper: 0.13)\n" us;
  Kernel.register_syscall k ~number:0 (fun _ -> 0);
  let us = Kernel.stamp_us k (fun () ->
    ignore (Kernel.syscall k ~number:0 ~args:[||])) in
  Printf.printf "system call:              %.2f us (paper: 4)\n" us;
  print_endline "done."

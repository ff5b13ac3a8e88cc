(* The benchmark's workloads. [rounds] x [size] is the fixed work of a
   10-second run (rounds scale with --seconds); each was sized so an
   untraced run takes 7-10 s on a 2-vCPU x86-64 host. *)

let all : Harness.workload list = [
  { name = "web"; rounds = 12; size = 3200; smoke_size = 64;
    setup = Web.setup; finale = None };
  { name = "udp-echo"; rounds = 40; size = 25000; smoke_size = 400;
    setup = Udp_echo.setup; finale = Some Udp_echo.ladder };
  { name = "mem-pressure"; rounds = 10; size = 2000; smoke_size = 40;
    setup = Mem_pressure.setup; finale = None };
  { name = "ext-churn"; rounds = 20; size = 6400; smoke_size = 64;
    setup = Ext_churn.setup; finale = None };
  { name = "kernel-ops"; rounds = 20; size = 20000; smoke_size = 500;
    setup = Kernel_ops.setup; finale = None };
]

let find name = List.find_opt (fun (w : Harness.workload) -> w.name = name) all

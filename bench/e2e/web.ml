(* web: the section 5.4 path under a closed loop. 16 client strands
   each connect, GET, drain and close, back to back, against the
   in-kernel HTTP server on a pair of 4-CPU hosts over a T3 device at
   622 Mb/s (so the CPUs, not the wire, bound throughput). 64 files of
   1-16 KB, picked by Zipf(0.9), all fit in the file cache and are
   warmed before the clock starts: TCP, HTTP, cache hits and SMP
   scheduling (steals, IPIs, sharded receive) do the work. *)

let clients = 16
let n_files = 64
let popularity = Inputs.zipf ~n:n_files ~s:0.9
let sizes = Inputs.sizes ~lo:1024 ~hi:16384 n_files

let setup (r : Fixture.round) =
  let files = Array.map (Inputs.bytes r.rng) sizes in
  let requests = Inputs.exact_mix r.rng popularity r.size in
  let p = Fixture.pair ~cpus:4 ~kind:Spin_machine.Nic.T3 ~mbps:622. () in
  let w = Fixture.web_server p files in
  Fixture.warm w;
  let go () =
    Fixture.watch_runnable (Fixture.scheds p);
    Fixture.closed_loop p r ~clients (fun k -> Fixture.fetch_file w ~rid:k requests.(k));
    Fixture.run p in
  { Fixture.clock = p.clock; read = Fixture.web_counters w; go;
    audit = Fixture.audit_pair p }

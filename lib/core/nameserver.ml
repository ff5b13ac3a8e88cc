type identity = { who : string }

type lookup_error = Unknown_name | Denied

type binding = {
  domain : Kdomain.t;
  authorize : (identity -> bool) option;
}

type t = {
  clock : Spin_machine.Clock.t;
  table : (string, binding) Hashtbl.t;
}

let create clock = { clock; table = Hashtbl.create 64 }

let register t ~name ?authorize domain =
  Hashtbl.replace t.table name { domain; authorize }

let lookup t ~name identity =
  match Hashtbl.find_opt t.table name with
  | None -> Error Unknown_name
  | Some { domain; authorize } ->
    match authorize with
    | None -> Ok domain
    | Some auth ->
      (* The importer, exporter and authorizer interact through
         direct procedure calls — charge one. *)
      Spin_machine.Clock.charge t.clock
        (Spin_machine.Clock.cost t.clock).Spin_machine.Cost.proc_call;
      if auth identity then Ok domain else Error Denied


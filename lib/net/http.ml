module Machine = Spin_machine.Machine
module Clock = Spin_machine.Clock
module Trace = Spin_machine.Trace
module Sched = Spin_sched.Sched
module File_cache = Spin_fs.File_cache
module Dispatcher = Spin_core.Dispatcher
module Ebc = Spin_core.Ebc
module Ty = Spin_core.Ty

type stats = {
  mutable requests : int;
  mutable ok : int;
  mutable not_found : int;
  mutable dynamic : int;
  mutable fallbacks : int;
}

type t = {
  machine : Machine.t;
  sched : Sched.t;
  tcp : Tcp.t;
  cache : File_cache.t;
  content : (string, Bytes.t option) Dispatcher.event option;
  mutable fallback : Bytes.t option;
  stats : stats;
}

let parse_request line =
  match String.split_on_char ' ' (String.trim line) with
  | "GET" :: path :: _ when String.length path > 1 && path.[0] = '/' ->
    Some (String.sub path 1 (String.length path - 1))
  | _ -> None

(* The response is built in place, in the one buffer TCP is handed:
   "HTTP/1.0 <status>\r\nContent-Length: <n>\r\n\r\n", then the body. *)
let version = "HTTP/1.0 "
let length_field = "\r\nContent-Length: "
let head_end = "\r\n\r\n"

let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

(* Writes [s] into [buf] at [pos]; the position after it. *)
let put buf pos s =
  Bytes.blit_string s 0 buf pos (String.length s);
  pos + String.length s

(* Writes the decimal digits of [n] >= 0 so that they end at [stop]. *)
let rec put_digits buf stop n =
  Bytes.set buf (stop - 1) (Char.unsafe_chr (Char.code '0' + (n mod 10)));
  if n >= 10 then put_digits buf (stop - 1) (n / 10)

let respond t conn ~status ~body =
  let n = Bytes.length body in
  let nd = digits n in
  let head =
    String.length version + String.length status + String.length length_field
    + nd + String.length head_end in
  let msg = Bytes.create (head + n) in
  let pos = put msg (put msg (put msg 0 version) status) length_field + nd in
  put_digits msg pos n;
  Bytes.blit body 0 msg (put msg pos head_end) n;
  Tcp.send t.tcp conn msg;
  Tcp.close t.tcp conn

(* Dynamic content is an event: extensions install generators on
   [HTTP.GenContent]; the primary implementation answers [None]. When
   a generator faults the dispatcher contains it — the evicted
   generator simply stops answering, and requests fall back to the
   static error page instead of taking the server down. *)
let serve_miss t conn name =
  let generated =
    match t.content with
    | None -> None
    | Some ev -> Dispatcher.raise_event ev name in
  match generated with
  | Some body ->
    t.stats.ok <- t.stats.ok + 1;
    t.stats.dynamic <- t.stats.dynamic + 1;
    respond t conn ~status:"200 OK" ~body
  | None ->
    match t.fallback with
    | Some body ->
      t.stats.fallbacks <- t.stats.fallbacks + 1;
      respond t conn ~status:"503 Service Unavailable" ~body
    | None ->
      t.stats.not_found <- t.stats.not_found + 1;
      respond t conn ~status:"404 Not Found" ~body:Bytes.empty

let serve t conn request =
  match parse_request request with
  | None -> respond t conn ~status:"400 Bad Request" ~body:Bytes.empty
  | Some name ->
    match File_cache.fetch t.cache ~name with
    | Some body ->
      t.stats.ok <- t.stats.ok + 1;
      respond t conn ~status:"200 OK" ~body
    | None -> serve_miss t conn name

let handle_request t conn request =
  Clock.charge t.machine.Machine.clock
    (Clock.cost t.machine.Machine.clock).Spin_machine.Cost.http_parse;
  t.stats.requests <- t.stats.requests + 1;
  let tr = Trace.of_clock t.machine.Machine.clock in
  let sp =
    if Trace.on tr then
      Trace.begin_span tr ~cat:"http" ~name:"request"
        ~args:[ ("path",
                 match parse_request request with
                 | Some name -> "/" ^ name
                 | None -> "<bad>") ] ()
    else Trace.null_span in
  match serve t conn request with
  | () -> Trace.end_span tr sp
  | exception e -> Trace.end_span tr sp; raise e

(* The bytecode view of a request: the path is the payload (a string
   is immutable; the unsafe cast is a read-only view, never written),
   its length the single typed field. Routing predicates compile to
   [Ebc.match_string] over this layout. *)
let content_layout : string Ebc.layout =
  Ebc.layout ~name:"HTTP.GenContent"
    ~fields:[ ("len", Ty.Int) ]
    ~read:(fun path _ -> String.length path)
    ~payload:{ Ebc.p_buf = Bytes.unsafe_of_string; p_off = (fun _ -> 0);
               p_len = String.length }
    ()

let create ?dispatcher machine sched tcp cache =
  let content =
    Option.map
      (fun d ->
        Dispatcher.declare d ~name:"HTTP.GenContent" ~owner:"HTTP"
          ~layout:content_layout
          (fun (_ : string) -> None))
      dispatcher in
  let t = {
    machine; sched; tcp; cache; content; fallback = None;
    stats =
      { requests = 0; ok = 0; not_found = 0; dynamic = 0; fallbacks = 0 };
  } in
  Tcp.listen tcp ~port:80 ~on_accept:(fun conn ->
    let pending = Buffer.create 128 in
    let started = ref false in
    Tcp.on_receive conn (fun data ->
      Buffer.add_bytes pending data;
      let all = Buffer.contents pending in
      (* One request per connection; complete at the header break.
         Service runs on a fresh strand: a file-cache miss blocks on
         the disk without wedging the protocol input thread. *)
      match String.index_opt all '\n' with
      | Some _ when not !started ->
        started := true;
        ignore (Sched.spawn t.sched ~name:"http-request" (fun () ->
          handle_request t conn all))
      | Some _ | None -> ()));
  t

let content_event t = t.content

(* The router: the path predicate compiles to bytecode and verifies at
   install, so route matching dispatches trusted-fast — the generator
   body runs only on its own paths, and no guard stack is walked per
   request. The (theoretical) case of a path too long to compile
   installs the same predicate as a closure guard. *)
let install_route t ~installer ~path handler =
  match t.content with
  | None -> None
  | Some ev ->
    let install spec = Dispatcher.install ev ~installer ~spec handler in
    match install (Dispatcher.Handler_spec.verified (Ebc.match_string path)) with
    | Ok h -> Some h
    | Error _ ->
      Some
        (Dispatcher.ok_exn ~site:"Http.install_route"
           (install (Dispatcher.Handler_spec.guarded (fun req -> req = path))))

let set_fallback t body = t.fallback <- Some body

let stats t = { t.stats with requests = t.stats.requests }

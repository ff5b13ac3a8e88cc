(** The in-kernel HTTP server extension (paper, sections 5.3-5.4):
    splices the TCP stack to the file system inside the kernel, with
    the hybrid object cache deciding what stays in memory. *)

type t

val create :
  ?dispatcher:Spin_core.Dispatcher.t ->
  Spin_machine.Machine.t -> Spin_sched.Sched.t -> Tcp.t ->
  Spin_fs.File_cache.t -> t
(** Listens on port 80. Request format: [GET /name HTTP/1.0].
    Each request is served on its own kernel strand, so a cache miss
    blocks that request on the disk without stalling the protocol
    input thread.

    With [dispatcher], the server also declares the [HTTP.GenContent]
    event (see {!content_event}): paths not found in the file cache
    are offered to dynamic content generators. *)

val content_event :
  t -> (string, Bytes.t option) Spin_core.Dispatcher.event option
(** The dynamic-content event (present when [create] was given a
    dispatcher). Extensions install generators on it. A buggy
    generator is contained by the dispatcher: its first fault evicts
    it, and the server degrades to the static fallback page instead
    of dying. *)

val install_route :
  t -> installer:string -> path:string ->
  (string -> Bytes.t option) ->
  (string, Bytes.t option) Spin_core.Dispatcher.handler option
(** Installs a content generator behind a verified route predicate:
    the path match ([= path]) compiles to
    {!Spin_core.Ebc.match_string}, verifies at install, and dispatches
    on the trusted-fast path — per-request routing walks no guard
    stack. A verification failure installs the same predicate as a
    closure guard. [None] when the server was created without a
    dispatcher. *)

val set_fallback : t -> Bytes.t -> unit
(** Static error page served with [503 Service Unavailable] when a
    path misses both the file cache and every content generator
    (e.g. after a faulting generator was evicted). Without a
    fallback such requests get an empty [404]. *)

type stats = {
  mutable requests : int;
  mutable ok : int;
  mutable not_found : int;
  mutable dynamic : int;     (** responses produced by content generators *)
  mutable fallbacks : int;   (** degraded responses (static error page) *)
}

val stats : t -> stats

(** Extension bytecode: safety decided at install time, not run time.

    SPIN's thesis is that safety is a link-time decision; the
    dispatcher nonetheless pays runtime guard evaluation and
    bounded-time policing on every event. This module moves both to
    install time, the way Rex and bpftime move eBPF-style verification
    offline: an extension expresses its predicate as a small
    register-based bytecode, an install-time {!verify} proves it safe
    (termination via statically bounded loops, typed event-field loads
    checked against {!Ty}, payload and capability accesses checked
    against declared tables), and {!compile} turns the proven program
    into a closure the dispatcher may run with {b zero per-event
    checks} — no guard stack walk, no overrun stamping.

    Programs run over an {e event image} described by a {!layout}: a
    typed field table (the event argument projected to scalar slots),
    an optional byte payload (a packet view, a request path), and a
    typed capability slot table. All runtime values are integers;
    types ([Rint], [Rbool], [Rtext], [Rcap]) exist only in the
    verifier, which rejects ill-typed programs before they ever
    execute. *)

type reg = int
(** Register index, [0..7]. *)

type instr =
  | Ldi of reg * int            (** load immediate *)
  | Ldf of reg * int            (** load typed event field by slot *)
  | Ldb of reg * int            (** payload byte at offset (0 beyond end) *)
  | Ldw of reg * int            (** payload u16, little-endian *)
  | Len of reg                  (** payload length *)
  | Ldc of reg * int            (** capability slot id; -1 once revoked *)
  | Mov of reg * reg
  | Add of reg * reg * reg
  | Sub of reg * reg * reg
  | And of reg * reg * reg      (** int/int or bool/bool *)
  | Or of reg * reg * reg
  | Eq of reg * reg * reg       (** operands must share a type; yields bool *)
  | Lt of reg * reg * reg       (** ints only; yields bool *)
  | Not of reg * reg            (** bool only *)
  | Jmp of int                  (** relative skip; forward only *)
  | Jz of reg * int             (** skip if zero; forward only *)
  | Jnz of reg * int
  | Loop of int * int           (** [Loop (n, k)]: run the next [k]
                                    instructions [n] times — the only
                                    back edge, statically bounded *)
  | Ret of reg                  (** exit with the register's truth *)

type program = instr array

(** {2 Event layouts and capability slots} *)

(** Where an event argument's payload bytes lie: three projections
    rather than one returning a triple, so that a run that reads the
    payload builds no tuple. *)
type 'a payload = {
  p_buf : 'a -> Bytes.t;                (** the buffer holding them *)
  p_off : 'a -> int;                    (** their offset in it *)
  p_len : 'a -> int;                    (** how many there are *)
}

type 'a layout = {
  l_name : string;
  l_fields : (string * Ty.t) array;     (** slot order, typed *)
  l_read : 'a -> int -> int;            (** project a slot to a scalar *)
  l_payload : 'a payload option;        (** read where the data lies *)
}

val layout :
  name:string ->
  ?fields:(string * Ty.t) list ->
  ?read:('a -> int -> int) ->
  ?payload:'a payload ->
  unit -> 'a layout

type cap_slot = {
  cs_ty : Ty.t;
  cs_read : unit -> int;        (** current id, or -1 once revoked *)
}

val cap_slot : ty:Ty.t -> 'a Capability.t -> cap_slot
(** A slot over a live capability: loads the capability's id while it
    is valid, -1 after revocation or an epoch advance. *)

(** {2 Verification} *)

type rty = Rint | Rbool | Rtext | Rcap of Ty.t

type error =
  | Empty
  | Too_long of int
  | Bad_register of { pc : int; reg : int }
  | Uninitialized of { pc : int; reg : int }
  | Field_out_of_range of { pc : int; slot : int; fields : int }
  | Ill_typed_field of { pc : int; slot : int; ty : Ty.t }
      (** the slot exists but its type cannot be loaded into a register *)
  | No_payload of { pc : int }
  | Payload_out_of_range of { pc : int; off : int }
  | Cap_out_of_range of { pc : int; slot : int; caps : int }
      (** capability index forgery: the slot was never granted *)
  | Ill_typed of { pc : int; expected : rty; found : rty }
  | Ill_typed_compare of { pc : int; left : rty; right : rty }
  | Backward_jump of { pc : int; target : int }
      (** the unbounded-loop attempt: only {!Loop} may go back *)
  | Jump_out_of_block of { pc : int; target : int }
  | Bad_loop of { pc : int }
  | Over_budget of { steps : int; budget : int }
      (** terminates, but not within the declared bound *)
  | Missing_ret
  | No_layout of string
      (** installed on an event that published no layout *)

val error_to_string : error -> string

type cert = { c_steps : int (** static bound on instructions executed *) }

val default_budget : int
(** Step budget when the installer declares no bound (4096). *)

type 'a verified
(** A program {!verify} accepted, together with the layout and
    capability slots it was checked against. Only {!verify} makes
    one. *)

val verify :
  layout:'a layout -> ?caps:cap_slot array -> ?budget:int ->
  program -> ('a verified, error) result
(** The install-time verifier. Accepts exactly the programs that (a)
    terminate within [budget] interpreted steps on every input —
    forward-only jumps plus statically bounded [Loop]s make the bound
    a static sum; (b) read only declared, loadable-typed event fields,
    in-range payload offsets, and granted capability slots; (c) never
    read an uninitialized register, compare across types, or fall off
    the end without [Ret]. The result keeps its own copy of the
    program. *)

val certificate : 'a verified -> cert

val compile : 'a verified -> ('a -> bool)
(** The trusted-fast form: a closure with no per-event safety checks.
    Compiled code indexes registers and capability slots unchecked on
    the strength of the certificate, which is why it takes only what
    {!verify} returned. (Payload reads still honor the datum's dynamic
    length: bytes beyond the payload read as 0, exactly as {!verify}
    assumed.) *)

val run_counted :
  layout:'a layout -> program -> 'a -> bool * int
(** Checked reference interpreter, returning the result and the number
    of instructions executed (each pass of a [Loop] body counts its
    instructions again) — the oracle the certificate is tested against
    ([steps <= cert.c_steps] for every verified program). It grants no
    capability slots: an [Ldc] raises [Invalid_argument]. *)

(** {2 Install-time cost} *)

val verify_cycles : Spin_machine.Cost.t -> program -> int
(** Virtual cycles an install charges for verification: one linear
    pass, [ebc_verify_per_instr] per instruction plus
    [ebc_verify_fixed]. This is the cost Table 2-style numbers move
    from every event to one install. *)

(** {2 Program builders} *)

val match_field : slot:int -> int -> program
(** [field slot = v]. *)

val match_string : string -> program
(** Payload equals the string. *)

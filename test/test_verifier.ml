(* The install-time bytecode verifier and the trusted-fast dispatch
   path: an adversarial corpus that must be turned away at install
   with the right typed error, a QCheck property that every program
   the verifier accepts honors its termination certificate, and the
   Handler_spec behaviours the API redesign promises — trusted
   installs dispatch with zero per-event checks (measurably cheaper
   than guards), demote the moment a closure guard appears, and reuse
   a requested cycle bound as the verification budget. *)

open Alcotest
module Dispatcher = Spin_core.Dispatcher
module Handler_spec = Dispatcher.Handler_spec
module Ebc = Spin_core.Ebc
module Ty = Spin_core.Ty
module Capability = Spin_core.Capability
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost

type ev = { a : int; b : int }

(* Two int fields and a 5-byte payload: enough surface for every
   instruction class the corpus attacks. *)
let layout : ev Ebc.layout =
  Ebc.layout ~name:"Test.Ev"
    ~fields:[ ("a", Ty.Int); ("b", Ty.Int) ]
    ~read:(fun e slot -> if slot = 0 then e.a else e.b)
    ~payload:{ Ebc.p_buf = (fun _ -> Bytes.of_string "spin!");
               p_off = (fun _ -> 0); p_len = (fun _ -> 5) }
    ()

(* No payload, and slot 1 has a type no register can hold. *)
let bare_layout : ev Ebc.layout =
  Ebc.layout ~name:"Test.Bare"
    ~fields:[ ("a", Ty.Int); ("fn", Ty.Proc ([], Ty.Int)) ]
    ~read:(fun e _ -> e.a)
    ()

(* ------------------------------------------------------------------ *)
(* Adversarial corpus: every attack rejected, each with its own error *)
(* ------------------------------------------------------------------ *)

let corpus : (string * Ebc.program * (Ebc.error -> bool)) list =
  [
    ( "unbounded loop via backward jump",
      [| Ebc.Ldi (0, 0); Ebc.Jmp (-2); Ebc.Ret 0 |],
      function Ebc.Backward_jump _ -> true | _ -> false );
    ( "loop body past the program end",
      [| Ebc.Loop (3, 9); Ebc.Ret 0 |],
      function Ebc.Bad_loop _ -> true | _ -> false );
    ( "terminates but over the step budget",
      [| Ebc.Ldi (0, 1); Ebc.Loop (Ebc.default_budget, 1); Ebc.Mov (0, 0);
         Ebc.Ret 0 |],
      function Ebc.Over_budget _ -> true | _ -> false );
    ( "field load beyond the declared table",
      [| Ebc.Ldf (0, 9); Ebc.Ret 0 |],
      function Ebc.Field_out_of_range _ -> true | _ -> false );
    ( "capability forgery: slot never granted",
      [| Ebc.Ldc (0, 0); Ebc.Ret 0 |],
      function Ebc.Cap_out_of_range _ -> true | _ -> false );
    ( "ill-typed compare: bool against int",
      [| Ebc.Ldi (0, 1); Ebc.Ldi (1, 1); Ebc.Eq (2, 0, 1);
         Ebc.Eq (3, 2, 0); Ebc.Ret 3 |],
      function Ebc.Ill_typed_compare _ -> true | _ -> false );
    ( "ordering booleans",
      [| Ebc.Ldi (0, 1); Ebc.Ldi (1, 2); Ebc.Eq (2, 0, 1);
         Ebc.Eq (3, 0, 1); Ebc.Lt (4, 2, 3); Ebc.Ret 4 |],
      function Ebc.Ill_typed _ -> true | _ -> false );
    ( "boolean-not of an integer",
      [| Ebc.Ldi (0, 3); Ebc.Not (0, 0); Ebc.Ret 0 |],
      function Ebc.Ill_typed _ -> true | _ -> false );
    ( "uninitialized register read",
      [| Ebc.Add (0, 1, 2); Ebc.Ret 0 |],
      function Ebc.Uninitialized _ -> true | _ -> false );
    ( "register index out of range",
      [| Ebc.Ldi (8, 1); Ebc.Ret 0 |],
      function Ebc.Bad_register _ -> true | _ -> false );
    ( "jump escaping a loop body",
      [| Ebc.Loop (2, 2); Ebc.Ldi (0, 1); Ebc.Jmp 3; Ebc.Ret 0 |],
      function Ebc.Jump_out_of_block _ -> true | _ -> false );
    ( "negative payload offset",
      [| Ebc.Ldb (0, -1); Ebc.Ret 0 |],
      function Ebc.Payload_out_of_range _ -> true | _ -> false );
    ( "falls off the end without Ret",
      [| Ebc.Ldi (0, 1) |],
      function Ebc.Missing_ret -> true | _ -> false );
    ( "empty program",
      [||],
      function Ebc.Empty -> true | _ -> false );
    ( "longer than any declarable program",
      Array.make 4097 (Ebc.Ldi (0, 0)),
      function Ebc.Too_long _ -> true | _ -> false );
  ]

let test_corpus () =
  List.iter
    (fun (name, prog, matches) ->
      match Ebc.verify ~layout prog with
      | Ok _ -> failf "%s: verifier accepted it" name
      | Error e ->
        if not (matches e) then
          failf "%s: rejected with the wrong error: %s" name
            (Ebc.error_to_string e))
    corpus

let test_layout_gaps () =
  (match Ebc.verify ~layout:bare_layout [| Ebc.Ldb (0, 0); Ebc.Ret 0 |] with
   | Error (Ebc.No_payload _) -> ()
   | Ok _ -> fail "payload read accepted on a payload-less layout"
   | Error e -> failf "wrong error: %s" (Ebc.error_to_string e));
  match Ebc.verify ~layout:bare_layout [| Ebc.Ldf (0, 1); Ebc.Ret 0 |] with
  | Error (Ebc.Ill_typed_field _) -> ()
  | Ok _ -> fail "procedure-typed field loaded into a register"
  | Error e -> failf "wrong error: %s" (Ebc.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Install-level rejection: nothing linked in, the refusal counted    *)
(* ------------------------------------------------------------------ *)

let fixture () =
  let clock = Clock.create Cost.alpha_133 in
  (clock, Dispatcher.create clock)

let declare ?(name = "Test.Ev") d =
  Dispatcher.declare d ~name ~owner:"test" ~layout
    ~allow_remove_primary:(fun ~requester:_ -> true)
    (fun (_ : ev) -> ())

let retire_primary e =
  match Dispatcher.remove_primary e ~requester:"test" with
  | Ok () -> ()
  | Error `Denied -> fail "remove_primary denied"

let must = function
  | Ok h -> h
  | Error err -> failf "install: %s" (Dispatcher.install_error_to_string err)

let test_install_rejection () =
  let _, d = fixture () in
  let e = declare d in
  (match
     Dispatcher.install e ~installer:"adversary"
       ~spec:(Handler_spec.verified [| Ebc.Jmp (-1); Ebc.Ret 0 |])
       (fun _ -> ())
   with
   | Error (Dispatcher.Rejected (Ebc.Backward_jump _)) -> ()
   | Ok _ -> fail "adversarial install accepted"
   | Error err ->
     failf "wrong install error: %s" (Dispatcher.install_error_to_string err));
  check int "rejection counted" 1 (Dispatcher.verifier_rejections d);
  check (list unit) "nothing linked in" []
    (List.map (fun _ -> ())
       (Dispatcher.installed_specs d ~installer:"adversary"))

let test_install_without_layout () =
  let _, d = fixture () in
  let e =
    Dispatcher.declare d ~name:"Test.NoLayout" ~owner:"test"
      (fun (_ : ev) -> ()) in
  match
    Dispatcher.install e ~installer:"ext"
      ~spec:(Handler_spec.verified (Ebc.match_field ~slot:0 1))
      (fun _ -> ())
  with
  | Error (Dispatcher.Rejected (Ebc.No_layout _)) -> ()
  | Ok _ -> fail "verified install accepted on an event with no layout"
  | Error err ->
    failf "wrong install error: %s" (Dispatcher.install_error_to_string err)

(* ------------------------------------------------------------------ *)
(* Trusted-fast dispatch: counted, correct, and measurably cheaper    *)
(* ------------------------------------------------------------------ *)

let test_trusted_fast_dispatch () =
  let _, d = fixture () in
  let e = declare d in
  retire_primary e;
  let hits = ref 0 in
  ignore
    (must
       (Dispatcher.install e ~installer:"ext"
          ~spec:(Handler_spec.verified (Ebc.match_field ~slot:0 7))
          (fun _ -> incr hits)));
  let trusted_installed =
    List.exists
      (fun i -> i.Handler_spec.i_trusted)
      (Dispatcher.installed_specs d ~installer:"ext") in
  check bool "spec enumerates as trusted" true trusted_installed;
  for n = 0 to 99 do
    Dispatcher.raise_default e () { a = n mod 10; b = n }
  done;
  check int "predicate selected its subset" 10 !hits;
  let st = Dispatcher.stats e in
  check int "trusted-fast dispatches counted" 10 st.Dispatcher.trusted_fast;
  check int "no per-event guard evaluations" 0 st.Dispatcher.guard_rejections;
  check int "dispatcher-wide total agrees" 10 (Dispatcher.trusted_total d)

let dispatch_cycles spec =
  let clock, d = fixture () in
  let e = declare d in
  retire_primary e;
  ignore (must (Dispatcher.install e ~installer:"ext" ~spec (fun _ -> ())));
  Clock.stamp clock (fun () ->
      for n = 1 to 200 do
        Dispatcher.raise_default e () { a = 3; b = n }
      done)

let test_trusted_twice_as_cheap () =
  let guarded =
    dispatch_cycles (Handler_spec.guarded (fun ev -> ev.a = 3)) in
  let verified =
    dispatch_cycles (Handler_spec.verified (Ebc.match_field ~slot:0 3)) in
  if verified * 2 > guarded then
    failf "verified dispatch not 2x cheaper: %d vs %d cycles" verified guarded

let test_guard_demotes_trusted () =
  let _, d = fixture () in
  let e = declare d in
  retire_primary e;
  let hits = ref 0 in
  let h =
    must
      (Dispatcher.install e ~installer:"ext"
         ~spec:(Handler_spec.verified (Ebc.match_field ~slot:0 1))
         (fun _ -> incr hits)) in
  Dispatcher.add_guard h (fun ev -> ev.b > 0);
  let still_trusted =
    List.exists
      (fun i -> i.Handler_spec.i_trusted)
      (Dispatcher.installed_specs d ~installer:"ext") in
  check bool "add_guard forfeits the trusted path" false still_trusted;
  Dispatcher.raise_default e () { a = 1; b = 1 };
  Dispatcher.raise_default e () { a = 1; b = 0 };
  Dispatcher.raise_default e () { a = 2; b = 1 };
  check int "predicate and guard conjoin" 1 !hits;
  check int "no trusted-fast dispatches after demotion" 0
    (Dispatcher.trusted_total d)

let test_spec_guard_never_trusted () =
  let _, d = fixture () in
  let e = declare d in
  let spec =
    { (Handler_spec.verified (Ebc.match_field ~slot:0 1)) with
      guard = Some (fun ev -> ev.b > 0) } in
  ignore (must (Dispatcher.install e ~installer:"ext" ~spec (fun _ -> ())));
  check bool "guard in the spec keeps the closure path" false
    (List.exists
       (fun i -> i.Handler_spec.i_trusted)
       (Dispatcher.installed_specs d ~installer:"ext"))

let test_bound_becomes_budget () =
  let _, d = fixture () in
  let e = declare d in
  let prog =
    [| Ebc.Ldi (0, 1); Ebc.Loop (40, 1); Ebc.Mov (0, 0); Ebc.Ret 0 |] in
  (match Ebc.verify ~layout prog with
   | Ok _ -> ()
   | Error err ->
     failf "loop rejected under the default budget: %s"
       (Ebc.error_to_string err));
  let spec =
    { (Handler_spec.verified prog) with bound_cycles = Some 20 } in
  match Dispatcher.install e ~installer:"ext" ~spec (fun _ -> ()) with
  | Error (Dispatcher.Rejected (Ebc.Over_budget _)) -> ()
  | Ok _ -> fail "bound_cycles ignored: over-budget program admitted"
  | Error err ->
    failf "wrong install error: %s" (Dispatcher.install_error_to_string err)

(* ------------------------------------------------------------------ *)
(* Capability slots                                                   *)
(* ------------------------------------------------------------------ *)

let test_capability_slots () =
  let cap = Capability.mint ~owner:"test" 42 in
  let slot = Ebc.cap_slot ~ty:Ty.Int cap in
  let caps = [| slot |] in
  let prog =
    [| Ebc.Ldc (0, 0); Ebc.Ldc (1, 0); Ebc.Eq (2, 0, 1); Ebc.Ret 2 |] in
  (match Ebc.verify ~layout ~caps prog with
   | Ok v ->
     check bool "live capability equals itself" true
       (Ebc.compile v { a = 0; b = 0 })
   | Error err ->
     failf "granted slot rejected: %s" (Ebc.error_to_string err));
  (match Ebc.verify ~layout ~caps [| Ebc.Ldc (0, 1); Ebc.Ret 0 |] with
   | Error (Ebc.Cap_out_of_range _) -> ()
   | Ok _ -> fail "undeclared capability slot admitted"
   | Error err -> failf "wrong error: %s" (Ebc.error_to_string err));
  check bool "slot reads a live id" true (slot.Ebc.cs_read () >= 0);
  Capability.revoke cap;
  check int "revoked slot reads -1" (-1) (slot.Ebc.cs_read ())

(* ------------------------------------------------------------------ *)
(* QCheck: acceptance carries obligations                             *)
(* ------------------------------------------------------------------ *)

(* Registers 0-3 hold integers. A compare writes r4 or r5, and the
   branch or Not drawn with it reads that result, so most draws are
   well typed and the verifier's acceptance path is the common one. *)
let instr_gen =
  let open QCheck2.Gen in
  let reg = int_range 0 3 in
  let one g = map (fun i -> [ i ]) g in
  let compared use =
    map3
      (fun (lt, d) (a, b) k ->
        [ (if lt then Ebc.Lt (d, a, b) else Ebc.Eq (d, a, b)); use d k ])
      (pair bool (int_range 4 5)) (pair reg reg) (int_range 0 3) in
  oneof
    [
      one (map2 (fun r v -> Ebc.Ldi (r, v)) reg (int_range (-4) 12));
      one (map2 (fun r s -> Ebc.Ldf (r, s)) reg (int_range 0 1));
      one (map2 (fun r o -> Ebc.Ldb (r, o)) reg (int_range 0 8));
      one (map2 (fun r o -> Ebc.Ldw (r, o)) reg (int_range 0 6));
      one (map (fun r -> Ebc.Len r) reg);
      one (map2 (fun d s -> Ebc.Mov (d, s)) reg reg);
      one (map3 (fun d a b -> Ebc.Add (d, a, b)) reg reg reg);
      one (map3 (fun d a b -> Ebc.Sub (d, a, b)) reg reg reg);
      one (map3 (fun d a b -> Ebc.And (d, a, b)) reg reg reg);
      one (map3 (fun d a b -> Ebc.Or (d, a, b)) reg reg reg);
      compared (fun d _ -> Ebc.Not (d, d));
      one (map (fun k -> Ebc.Jmp k) (int_range 0 3));
      compared (fun d k -> Ebc.Jz (d, k));
      compared (fun d k -> Ebc.Jnz (d, k));
      one (map2 (fun n k -> Ebc.Loop (n, k)) (int_range 0 6) (int_range 1 3));
    ]

(* Three programs in four start by loading r0-r3; the rest start cold,
   so the uninitialised-register rejections still run. *)
let prog_gen =
  let open QCheck2.Gen in
  let prologue =
    frequency
      [ (3, map (List.mapi (fun r v -> Ebc.Ldi (r, v)))
              (list_repeat 4 (int_range (-4) 12)));
        (1, pure []) ] in
  map3
    (fun pre body r -> Array.of_list (pre @ List.concat body @ [ Ebc.Ret r ]))
    prologue
    (list_size (int_range 0 10) instr_gen)
    (int_range 0 3)

(* The certificate property below trusts [run_counted]'s step count,
   so the count itself is pinned exactly: one step per executed
   instruction, and a Loop body's instructions once per pass. *)
let test_run_counted_steps () =
  let ev = { a = 0; b = 0 } in
  let counted name prog ~steps =
    let result, n = Ebc.run_counted ~layout prog ev in
    check bool (name ^ ": result") true result;
    check int (name ^ ": steps") steps n;
    match Ebc.verify ~layout prog with
    | Ok v ->
      check bool (name ^ ": within the certificate") true
        (n <= (Ebc.certificate v).c_steps)
    | Error err -> failf "%s rejected: %s" name (Ebc.error_to_string err) in
  List.iter
    (fun n ->
      counted (Printf.sprintf "straight line of %d" n)
        (Array.init n (fun i -> if i = n - 1 then Ebc.Ret 0 else Ebc.Ldi (0, 1)))
        ~steps:n)
    [ 2; 5; 16 ];
  (* 2 loads, the Loop, 5 passes of a 2-instruction body, the Ret. *)
  counted "loop"
    [| Ebc.Ldi (0, 0); Ebc.Ldi (1, 1); Ebc.Loop (5, 2); Ebc.Add (0, 0, 1);
       Ebc.Add (0, 0, 1); Ebc.Ret 0 |]
    ~steps:14

let cases = 500
let accepted = ref 0

(* For every random program the verifier accepts: the checked
   interpreter finishes within the certificate's static step bound,
   and the trusted compiled form (zero runtime checks) agrees with it
   on the result. Rejected programs carry no obligations. *)
let prop_certificate =
  QCheck2.Test.make ~name:"accepted programs honor their certificate"
    ~count:cases
    QCheck2.Gen.(triple prog_gen (int_range (-8) 8) (int_range (-8) 8))
    (fun (prog, a, b) ->
      match Ebc.verify ~layout prog with
      | Error _ -> true
      | Ok v ->
        incr accepted;
        let ev = { a; b } in
        let result, steps = Ebc.run_counted ~layout prog ev in
        steps <= (Ebc.certificate v).c_steps && Ebc.compile v ev = result)

(* A fixed seed makes the acceptance count a fact about the generator:
   a property the verifier rejects nearly every case of checks
   nothing. *)
let test_certificate () =
  accepted := 0;
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 1995 |]) prop_certificate;
  if !accepted < 200 then
    failf "only %d of %d programs accepted" !accepted cases

(* ------------------------------------------------------------------ *)
(* Differential: the packed verifier against the reference model      *)
(* ------------------------------------------------------------------ *)

(* A text field and a procedure-typed one beside an int, and a payload;
   the bare layout has one int field and no payload. *)
let wide_layout : ev Ebc.layout =
  Ebc.layout ~name:"Test.Wide"
    ~fields:[ ("a", Ty.Int); ("t", Ty.Text); ("fn", Ty.Proc ([], Ty.Int)) ]
    ~read:(fun e _ -> e.a)
    ~payload:{ Ebc.p_buf = (fun _ -> Bytes.of_string "spin!");
               p_off = (fun _ -> 0); p_len = (fun _ -> 5) }
    ()

let narrow_layout : ev Ebc.layout =
  Ebc.layout ~name:"Test.Narrow" ~fields:[ ("a", Ty.Int) ]
    ~read:(fun e _ -> e.a) ()

(* Slots 0 and 2 hold equal types built apart, so only [Ty.equal] can
   tell they agree; slots 1 and 3 hold two other types. *)
let diff_caps =
  let slot ty = { Ebc.cs_ty = ty; cs_read = (fun () -> 0) } in
  [| slot (Ty.Proc ([ Ty.Int ], Ty.Opaque "Port"));
     slot (Ty.Opaque "Port");
     slot (Ty.Proc ([ Ty.Int ], Ty.Opaque ("Po" ^ "rt")));
     slot Ty.Int |]

(* A program as nested items: a jump to its block's end or past the
   next item gets its offset when the items are laid out, so jumps
   land on a loop's end as often as anywhere else. *)
type item =
  | Op of Ebc.instr
  | To_end of (int -> Ebc.instr)
  | Over of (int -> Ebc.instr)
  | Body of int * item list               (* a Loop and the items it runs *)

(* Lay out [items], last first: [after] instructions follow in the
   block, and the next item takes [next]. *)
let rec lay_out items =
  let place item (code, after, next) =
    match item with
    | Op i -> (i :: code, after + 1, 1)
    | To_end jump -> (jump after :: code, after + 1, 1)
    | Over jump -> (jump next :: code, after + 1, 1)
    | Body (count, body) ->
      let b = lay_out body in
      let len = List.length b in
      ((Ebc.Loop (count, len) :: b) @ code, after + 1 + len, 1 + len) in
  let code, _, _ = List.fold_right place items ([], 0, 0) in
  code

(* Registers 0-5 mostly, sometimes one out of range. Every opcode is
   drawn, with field slots, payload offsets, capability slots, jump
   offsets and loop shapes reaching past their valid ranges. *)
let item_gen =
  let open QCheck2.Gen in
  let reg = frequency [ (20, int_range 0 5); (1, oneofl [ -1; 8 ]) ] in
  let test = int_range 0 5 in
  let op g = map (fun i -> Op i) g in
  let jump r = frequency [ (3, pure None); (1, map Option.some r) ] in
  let branch c k =
    match c with
    | None -> Ebc.Jmp k
    | Some (true, r) -> Ebc.Jz (r, k)
    | Some (false, r) -> Ebc.Jnz (r, k) in
  let cond = jump (pair bool test) in
  sized_size (int_range 0 3) @@ fix (fun self depth ->
      let leaf =
        [ (3, op (map2 (fun r v -> Ebc.Ldi (r, v)) reg (int_range (-2) 3)));
          (2, op (map2 (fun r s -> Ebc.Ldf (r, s)) reg (int_range (-1) 3)));
          (1, op (map2 (fun r o -> Ebc.Ldb (r, o)) reg
                    (oneofl [ -1; 0; 3; 9; 65535; 65536 ])));
          (1, op (map2 (fun r o -> Ebc.Ldw (r, o)) reg (int_range (-1) 6)));
          (1, op (map (fun r -> Ebc.Len r) reg));
          (2, op (map2 (fun r s -> Ebc.Ldc (r, s)) reg (int_range (-1) 4)));
          (2, op (map2 (fun d s -> Ebc.Mov (d, s)) reg test));
          (1, op (map3 (fun d a b -> Ebc.Add (d, a, b)) reg test test));
          (1, op (map3 (fun d a b -> Ebc.Sub (d, a, b)) reg test test));
          (1, op (map3 (fun d a b -> Ebc.And (d, a, b)) reg test test));
          (1, op (map3 (fun d a b -> Ebc.Or (d, a, b)) reg test test));
          (3, op (map3 (fun d a b -> Ebc.Eq (d, a, b)) reg test test));
          (1, op (map3 (fun d a b -> Ebc.Lt (d, a, b)) reg test test));
          (1, op (map2 (fun d s -> Ebc.Not (d, s)) reg test));
          (1, op (map (fun r -> Ebc.Ret r) reg));
          (2, op (map2 branch cond (int_range (-2) 5)));
          (2, map (fun c -> To_end (branch c)) cond);
          (2, map (fun c -> Over (branch c)) cond);
          (1, op (map2 (fun n k -> Ebc.Loop (n, k)) (int_range (-1) 3)
                    (int_range 0 4))) ] in
      if depth = 0 then frequency leaf
      else
        frequency
          ((2, map2 (fun n body -> Body (n, body)) (int_range 0 4)
                 (list_size (int_range 0 4) (self (depth - 1))))
           :: leaf))

(* Most programs start by loading r0-r5, some with a capability; the
   rest start cold. Most end in a Ret; a few are empty or too long. *)
let diff_prog_gen =
  let open QCheck2.Gen in
  let prologue =
    frequency
      [ (3, map (List.mapi (fun r v -> Ebc.Ldi (r, v)))
              (list_repeat 6 (int_range 0 2)));
        (1, map2 (fun s t -> [ Ebc.Ldi (0, 1); Ebc.Ldi (1, 0); Ebc.Ldc (2, s);
                               Ebc.Ldc (3, t); Ebc.Ldi (4, 1); Ebc.Ldi (5, 0) ])
              (int_range 0 3) (int_range 0 3));
        (1, pure []) ] in
  let body =
    map3
      (fun pre items ret ->
        Array.of_list (pre @ lay_out items @ Option.to_list ret))
      prologue
      (list_size (int_range 0 12) item_gen)
      (frequency [ (8, map (fun r -> Some (Ebc.Ret r)) (int_range 0 5));
                   (1, pure None) ]) in
  frequency
    [ (200, body); (1, pure [||]);
      (1, pure (Array.make 4097 (Ebc.Ldi (0, 0)))) ]

let diff_cases = 20_000

(* How many draws the model answered with each outcome kind. *)
let diff_seen : (string, int) Hashtbl.t = Hashtbl.create 16

(* The constructor an outcome reports, so the test can require that
   every one the verifier can return was drawn. *)
let outcome_kind = function
  | Ok _ -> "Ok"
  | Error e ->
    (match e with
     | Ebc.Empty -> "Empty" | Ebc.Too_long _ -> "Too_long"
     | Ebc.Bad_register _ -> "Bad_register"
     | Ebc.Uninitialized _ -> "Uninitialized"
     | Ebc.Field_out_of_range _ -> "Field_out_of_range"
     | Ebc.Ill_typed_field _ -> "Ill_typed_field"
     | Ebc.No_payload _ -> "No_payload"
     | Ebc.Payload_out_of_range _ -> "Payload_out_of_range"
     | Ebc.Cap_out_of_range _ -> "Cap_out_of_range"
     | Ebc.Ill_typed _ -> "Ill_typed"
     | Ebc.Ill_typed_compare _ -> "Ill_typed_compare"
     | Ebc.Backward_jump _ -> "Backward_jump"
     | Ebc.Jump_out_of_block _ -> "Jump_out_of_block"
     | Ebc.Bad_loop _ -> "Bad_loop"
     | Ebc.Over_budget _ -> "Over_budget"
     | Ebc.Missing_ret -> "Missing_ret"
     | Ebc.No_layout _ -> "No_layout")

let show_outcome = function
  | Ok steps -> Printf.sprintf "Ok %d steps" steps
  | Error e -> "Error: " ^ Ebc.error_to_string e

(* [Ebc.verify] returns the model's certificate, or its error with the
   same pc and fields, on every program, layout, slot table and
   budget drawn. *)
let prop_matches_model =
  QCheck2.Test.make ~name:"verify agrees with the reference model"
    ~count:diff_cases
    ~print:(fun (prog, wide, budget) ->
      Printf.sprintf "%s layout, budget %d, %d instructions"
        (if wide then "wide" else "narrow") budget (Array.length prog))
    QCheck2.Gen.(triple diff_prog_gen bool
                   (frequency [ (3, pure Ebc.default_budget);
                                (1, int_range 1 40) ]))
    (fun (prog, wide, budget) ->
      let layout = if wide then wide_layout else narrow_layout in
      let got =
        Result.map
          (fun v -> (Ebc.certificate v).Ebc.c_steps)
          (Ebc.verify ~layout ~caps:diff_caps ~budget prog) in
      let want = Ebc_model.verify ~layout ~caps:diff_caps ~budget prog in
      let k = outcome_kind want in
      let seen = Option.value ~default:0 (Hashtbl.find_opt diff_seen k) in
      Hashtbl.replace diff_seen k (seen + 1);
      got = want
      || QCheck2.Test.fail_reportf "verify: %s; model: %s" (show_outcome got)
           (show_outcome want))

let test_matches_model () =
  Hashtbl.reset diff_seen;
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 1995 |])
    prop_matches_model;
  List.iter
    (fun kind ->
      if not (Hashtbl.mem diff_seen kind) then
        failf "the generator never drew an outcome of kind %s" kind)
    [ "Ok"; "Empty"; "Too_long"; "Bad_register"; "Uninitialized";
      "Field_out_of_range"; "Ill_typed_field"; "No_payload";
      "Payload_out_of_range"; "Cap_out_of_range"; "Ill_typed";
      "Ill_typed_compare"; "Backward_jump"; "Jump_out_of_block"; "Bad_loop";
      "Over_budget"; "Missing_ret" ];
  let accepted = Hashtbl.find diff_seen "Ok" in
  if accepted * 10 < diff_cases then
    failf "only %d of %d programs accepted" accepted diff_cases

(* The builders' output is what [verify_cycles] and execution steps,
   and so every virtual row, are computed from. *)
let test_match_string_pinned () =
  List.iter
    (fun s ->
      if Ebc.match_string s <> Ebc_model.match_string s then
        failf "match_string %S differs from the list-built program" s)
    [ ""; "a"; "r05"; "live"; "GET /index.html" ]

let () =
  run "verifier"
    [
      ( "corpus",
        [
          test_case "adversarial programs rejected, typed" `Quick test_corpus;
          test_case "layout gaps rejected" `Quick test_layout_gaps;
        ] );
      ( "install",
        [
          test_case "rejection installs nothing, is counted" `Quick
            test_install_rejection;
          test_case "no layout, no verified installs" `Quick
            test_install_without_layout;
        ] );
      ( "trusted-fast",
        [
          test_case "dispatch counted and correct" `Quick
            test_trusted_fast_dispatch;
          test_case "at least 2x cheaper than a guard" `Quick
            test_trusted_twice_as_cheap;
          test_case "add_guard demotes" `Quick test_guard_demotes_trusted;
          test_case "spec guard keeps the closure path" `Quick
            test_spec_guard_never_trusted;
          test_case "bound_cycles becomes the verify budget" `Quick
            test_bound_becomes_budget;
        ] );
      ("capabilities", [ test_case "typed slots" `Quick test_capability_slots ]);
      ( "properties",
        [ test_case "run_counted counts every step" `Quick
            test_run_counted_steps;
          test_case "accepted programs honor their certificate" `Quick
            test_certificate;
          test_case "verify agrees with the reference model" `Quick
            test_matches_model;
          test_case "match programs equal the list-built ones" `Quick
            test_match_string_pinned ] );
    ]

(* Shared formatting for the benchmark harness: every table prints
   paper-reported values next to our measured ones. Experiments also
   record machine-readable metrics: --json FILE writes them, and
   --check REFERENCE gates them.

   This is the one definition of a gate, and it keeps the two clocks
   apart. A row is virtual (simulated time or work, deterministic)
   unless it is emitted with [host]; the gate holds a virtual row to
   the reference exactly, with no direction and no tolerance. A host
   row (wall clock, [Gc], host microseconds) is trended, not gated,
   unless it declares a [Ceiling]: then it fails when it grows more
   than [tolerance] past the reference. The clock travels in the
   spin-bench/1 row, and the reference file is the re-record command's
   own --json output, so its diff shows exactly which rows moved.
   Checks against no reference go through [require]; every failure
   lands in one sink, and [main] exits 1 when it is not empty. *)

type host_gate = Trend | Ceiling
type clock = Virtual | Host of host_gate

type metric = {
  experiment : string;
  name : string;
  value : float;
  unit_ : string;
  clock : clock;
}

(* Host wall-clock for throughput measurements. CLOCK_MONOTONIC via
   bechamel's stub: immune to NTP steps, and unlike [Sys.time] it
   counts real elapsed time, not process CPU time — a simulation that
   blocks or is descheduled still measures honestly. *)
let wall_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let json_path : string option ref = ref None
let current_experiment = ref ""
let metrics : metric list ref = ref []
let failures : string list ref = ref []

let set_json path = json_path := Some path

let experiment name = current_experiment := name

let add clock ~unit_ ~name value =
  let m = { experiment = !current_experiment; name; value; unit_; clock } in
  metrics := m :: !metrics

let metric ?(unit_ = "us") ~name value = add Virtual ~unit_ ~name value

let host ?(gate = Trend) ~unit_ ~name value = add (Host gate) ~unit_ ~name value

let require ~name cond =
  if not cond then
    failures :=
      Printf.sprintf "REQUIRE       %s: %s" !current_experiment name
      :: !failures

(* ------------------------------------------------------------------ *)
(* spin-bench/1 JSON                                                   *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Values are written with 17 significant digits, enough for every
   float to read back bit for bit: the gate compares virtual rows
   exactly. *)
let write_json () =
  match !json_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc "{\"schema\":\"spin-bench/1\",\"results\":[\n";
    List.iteri
      (fun i m ->
         if i > 0 then output_string oc ",\n";
         Printf.fprintf oc
           "{\"experiment\":\"%s\",\"name\":\"%s\",\"value\":%.17g,\"unit\":\"%s\"%s}"
           (json_escape m.experiment) (json_escape m.name) m.value
           (json_escape m.unit_)
           (match m.clock with
            | Virtual -> ""
            | Host Trend -> ",\"host\":\"trend\""
            | Host Ceiling -> ",\"host\":\"ceiling\""))
      (List.rev !metrics);
    output_string oc "\n]}\n";
    close_out oc;
    Printf.printf "\nwrote %d metrics to %s\n" (List.length !metrics) path

(* The reader mirrors [write_json]: results are flat objects of string
   and number fields, strings escape only quote, backslash and control
   characters. It tokenizes the file and folds the tokens into rows, so
   the gate needs no JSON library. *)
type token = Str of string | Num of float | Sym of char

let tokens s =
  let len = String.length s in
  let rec go i acc =
    if i >= len then List.rev acc
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | '"' ->
        let buf = Buffer.create 16 in
        let rec str j =
          match s.[j] with
          | '"' -> j + 1
          | '\\' when s.[j + 1] = 'u' ->
            let code = int_of_string ("0x" ^ String.sub s (j + 2) 4) in
            Buffer.add_char buf (Char.chr (code land 0xff));
            str (j + 6)
          | '\\' -> Buffer.add_char buf s.[j + 1]; str (j + 2)
          | c -> Buffer.add_char buf c; str (j + 1) in
        let j = str (i + 1) in
        go j (Str (Buffer.contents buf) :: acc)
      | '-' | '0' .. '9' ->
        let j = ref i in
        while !j < len && String.contains "+-.0123456789eE" s.[!j] do incr j done;
        go !j (Num (float_of_string (String.sub s i (!j - i))) :: acc)
      | c -> go (i + 1) (Sym c :: acc) in
  go 0 []

let read_json path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let empty =
    { experiment = ""; name = ""; value = nan; unit_ = ""; clock = Virtual } in
  let rec rows row acc = function
    | Str key :: Sym ':' :: v :: rest ->
      let row =
        match key, v with
        | "experiment", Str e -> { row with experiment = e }
        | "name", Str n -> { row with name = n }
        | "value", Num x -> { row with value = x }
        | "unit", Str u -> { row with unit_ = u }
        | "host", Str "trend" -> { row with clock = Host Trend }
        | "host", Str "ceiling" -> { row with clock = Host Ceiling }
        | "host", _ -> failwith (path ^ ": unknown host gate in " ^ row.name)
        | _ -> row in
      rows row acc rest
    | Sym '}' :: rest when row.experiment <> "" -> rows empty (row :: acc) rest
    | Sym '{' :: rest -> rows empty acc rest
    | _ :: rest -> rows row acc rest
    | [] -> List.rev acc in
  rows empty [] (tokens s)

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

let header title =
  let line = String.make 72 '-' in
  Printf.printf "\n%s\n%s\n%s\n" line title line

let columns4 a b c d = Printf.printf "%-28s %12s %12s %12s\n" a b c d

let note fmt = Printf.printf fmt

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* ------------------------------------------------------------------ *)
(* The gate                                                            *)
(* ------------------------------------------------------------------ *)

(* The host ceiling's headroom; virtual rows have none. *)
let tolerance = 0.10

type finding =
  | Pass of metric * metric             (* reference, current *)
  | Fail of metric * metric             (* reference, current *)
  | Missing of metric                   (* gated reference row, not measured *)
  | Unreferenced of metric              (* gated current row, no reference *)

let gated m = m.clock <> Host Trend

(* A row is its experiment, name and clock: a row whose clock changed
   since the reference was recorded is both missing and unreferenced. *)
let same_row a b =
  a.experiment = b.experiment && a.name = b.name && a.clock = b.clock

let holds ~reference c =
  match c.clock with
  | Virtual -> Float.equal c.value reference.value
  | Host _ -> c.value <= reference.value *. (1. +. tolerance)

let compare ~reference current =
  let judged =
    List.map
      (fun r ->
         match List.find_opt (same_row r) current with
         | Some c -> if holds ~reference:r c then Pass (r, c) else Fail (r, c)
         | None -> Missing r)
      (List.filter gated reference) in
  let unreferenced =
    List.filter_map
      (fun c ->
         if List.exists (same_row c) reference then None
         else Some (Unreferenced c))
      (List.filter gated current) in
  judged @ unreferenced

let describe finding =
  let row m = m.experiment ^ ": " ^ m.name in
  match finding with
  | Pass (r, c) ->
    Printf.sprintf "ok            %-44s %g (reference %g)" (row c) c.value
      r.value
  | Fail (r, ({ clock = Virtual; _ } as c)) ->
    Printf.sprintf "FAIL          %-44s %.17g (reference %.17g, exact)"
      (row c) c.value r.value
  | Fail (r, c) ->
    Printf.sprintf "FAIL          %-44s %g > %g (reference %g, %.0f%% ceiling)"
      (row c) c.value (r.value *. (1. +. tolerance)) r.value (tolerance *. 100.)
  | Missing r ->
    Printf.sprintf "MISSING       %-44s reference %g, not measured" (row r)
      r.value
  | Unreferenced c ->
    Printf.sprintf "UNREFERENCED  %-44s %g, no reference row" (row c) c.value

(* Gates everything measured so far against [reference]: every verdict
   prints, and every one but [Pass] joins [failures]. *)
let check ~reference =
  header
    (Printf.sprintf "Gate: virtual rows exact, host ceilings at %.0f%%"
       (tolerance *. 100.));
  let findings = compare ~reference (List.rev !metrics) in
  let failed = List.filter (function Pass _ -> false | _ -> true) findings in
  List.iter (fun f -> print_endline (describe f)) findings;
  List.iter (fun f -> failures := describe f :: !failures) failed;
  Printf.printf "%d gated rows, %d failure(s)\n" (List.length findings)
    (List.length failed)

(* [main]'s last word: the failures go to stderr and make the exit
   code 1. *)
let exit_code () =
  match List.rev !failures with
  | [] -> 0
  | fs ->
    flush stdout;
    List.iter prerr_endline fs;
    Printf.eprintf "%d benchmark failure(s)\n" (List.length fs);
    1

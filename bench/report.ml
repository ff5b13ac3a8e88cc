(* Shared formatting for the benchmark harness: every table prints
   paper-reported values next to our measured ones. Experiments also
   record machine-readable metrics: --json FILE writes them, and
   --check REFERENCE gates them.

   This is the one definition of a gate. A metric declares at its
   emission site whether it is gated and which way a regression goes:
   [Ceiling] rows (latencies, costs, allocation) fail when they grow
   more than [tolerance] past the reference, [Floor] rows (speedups,
   counted work) when they drop more than [tolerance] below it. The
   direction is written into the spin-bench/1 row, so the reference
   file carries it too. Checks that compare against no reference
   (neutrality, zero drops) go through [require]. Every failure lands
   in one sink, and [main] exits 1 when it is not empty. *)

type gate = Floor | Ceiling

type metric = {
  experiment : string;
  name : string;
  value : float;
  unit_ : string;
  gate : gate option;
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

let metric ?(unit_ = "us") ?gate ~name value =
  metrics :=
    { experiment = !current_experiment; name; value; unit_; gate }
    :: !metrics

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
           "{\"experiment\":\"%s\",\"name\":\"%s\",\"value\":%g,\"unit\":\"%s\"%s}"
           (json_escape m.experiment) (json_escape m.name) m.value
           (json_escape m.unit_)
           (match m.gate with
            | None -> ""
            | Some Floor -> ",\"gate\":\"floor\""
            | Some Ceiling -> ",\"gate\":\"ceiling\""))
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
    { experiment = ""; name = ""; value = nan; unit_ = ""; gate = None } in
  let rec rows row acc = function
    | Str key :: Sym ':' :: v :: rest ->
      let row =
        match key, v with
        | "experiment", Str e -> { row with experiment = e }
        | "name", Str n -> { row with name = n }
        | "value", Num x -> { row with value = x }
        | "unit", Str u -> { row with unit_ = u }
        | "gate", Str "floor" -> { row with gate = Some Floor }
        | "gate", Str "ceiling" -> { row with gate = Some Ceiling }
        | "gate", _ -> failwith (path ^ ": unknown gate in " ^ row.name)
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

let tolerance = 0.10

type finding =
  | Within of metric * metric           (* reference, current *)
  | Regressed of metric * metric        (* reference, current *)
  | Missing of metric                   (* gated reference row, not measured *)
  | Unreferenced of metric              (* gated current row, no reference *)

(* A row is its experiment, name and direction: a row whose direction
   changed since the reference was recorded is both missing and
   unreferenced. *)
let same_row a b =
  a.experiment = b.experiment && a.name = b.name && a.gate = b.gate

let within gate ~reference v =
  match gate with
  | Ceiling -> v <= reference *. (1. +. tolerance)
  | Floor -> v >= reference *. (1. -. tolerance)

let compare ~reference current =
  let gated = List.filter (fun m -> m.gate <> None) in
  let judged =
    List.map
      (fun r ->
         match List.find_opt (same_row r) current, r.gate with
         | Some c, Some g ->
           if within g ~reference:r.value c.value then Within (r, c)
           else Regressed (r, c)
         | _ -> Missing r)
      (gated reference) in
  let unreferenced =
    List.filter_map
      (fun c ->
         if List.exists (same_row c) reference then None
         else Some (Unreferenced c))
      (gated current) in
  judged @ unreferenced

let describe finding =
  let row m = m.experiment ^ ": " ^ m.name in
  match finding with
  | Within (r, c) ->
    Printf.sprintf "ok            %-44s %g (reference %g)" (row c) c.value
      r.value
  | Regressed (r, c) ->
    let bound, sign, dir =
      match c.gate with
      | Some Floor -> (r.value *. (1. -. tolerance), '<', "floor")
      | _ -> (r.value *. (1. +. tolerance), '>', "ceiling") in
    Printf.sprintf "FAIL          %-44s %g %c %g (reference %g, %.0f%% %s)"
      (row c) c.value sign bound r.value (tolerance *. 100.) dir
  | Missing r ->
    Printf.sprintf "MISSING       %-44s reference %g, not measured" (row r)
      r.value
  | Unreferenced c ->
    Printf.sprintf "UNREFERENCED  %-44s %g, no reference row" (row c) c.value

(* Gates everything measured so far against [reference]: every verdict
   prints, and every one but [Within] joins [failures]. *)
let check ~reference =
  header
    (Printf.sprintf "Gate: gated rows vs reference (%.0f%% tolerance)"
       (tolerance *. 100.));
  let findings = compare ~reference (List.rev !metrics) in
  let failed =
    List.filter
      (function Within _ -> false | Regressed _ | Missing _ | Unreferenced _ -> true)
      findings in
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

(* Every value a lib/ interface exports has a caller, and every lib/
   module runs. For each [val] in lib/**/*.mli, the name must occur as
   an identifier in some other .ml/.mli under lib, bench (bench/e2e
   included), bin, examples or test; comments and string literals do
   not count. A value only its own module uses belongs out of the
   interface, and one nobody uses belongs out of the tree. Each
   lib/**/*.ml module must be named from another .ml/.mli under lib,
   bench or bin: one only tests and examples reach is code the system
   never runs. The scan is by name, so it can only undercount the
   offenders, never invent one. *)

(* Table 7's thread packages: b_sizes.ml counts their source files, so
   they stay whole although nothing runs them. *)
let exempt = [ "cthreads"; "osf_threads" ]

let roots = [ "../lib"; "../bench"; "../bin"; "../examples"; "../test" ]

let rec sources dir acc =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if name <> "" && name.[0] = '.' then acc
      else if Sys.is_directory path then sources path acc
      else if Filename.check_suffix name ".ml"
           || Filename.check_suffix name ".mli" then path :: acc
      else acc)
    acc (Sys.readdir dir)

let read path = In_channel.with_open_bin path In_channel.input_all

(* Blank out comments (nested) and string and character literals. *)
let strip src =
  let n = String.length src in
  let out = Buffer.create n in
  let rec skip_string i =
    if i >= n then i
    else match src.[i] with
      | '\\' -> skip_string (i + 2)
      | '"' -> i + 1
      | _ -> skip_string (i + 1) in
  let rec code i depth =
    if i >= n then ()
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*'
            && not (i + 2 < n && src.[i + 2] = ')') then code (i + 2) (depth + 1)
    else if depth > 0 && i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then begin
      if depth = 1 then Buffer.add_char out ' ';
      code (i + 2) (depth - 1)
    end
    else if src.[i] = '"' then begin
      if depth = 0 then Buffer.add_char out ' ';
      code (skip_string (i + 1)) depth
    end
    else if depth = 0 && src.[i] = '\'' && i + 2 < n && src.[i + 2] = '\'' then begin
      Buffer.add_char out ' ';
      code (i + 3) depth
    end
    else if depth = 0 && src.[i] = '\'' && i + 1 < n && src.[i + 1] = '\\' then begin
      Buffer.add_char out ' ';
      code (String.index_from src (i + 3) '\'' + 1) depth
    end
    else begin
      if depth = 0 then Buffer.add_char out src.[i];
      code (i + 1) depth
    end in
  code 0 0;
  Buffer.contents out

let is_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_start c || (c >= '0' && c <= '9') || c = '\''

let tokens text =
  let seen = Hashtbl.create 1024 in
  let n = String.length text in
  let rec go i =
    if i < n then
      if is_start text.[i] then begin
        let j = ref i in
        while !j < n && is_ident text.[!j] do incr j done;
        Hashtbl.replace seen (String.sub text i (!j - i)) ();
        go !j
      end
      else go (i + 1) in
  go 0;
  seen

(* The names an interface declares with [val]. *)
let vals text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | "val" :: name :: _ when name <> "" && is_start name.[0] ->
        let name =
          match String.index_opt name ':' with
          | Some k -> String.sub name 0 k
          | None -> name in
        Some name
      | _ -> None)

let module_of path = Filename.remove_extension (Filename.basename path)

let under root path =
  let r = root ^ "/" in
  String.length path > String.length r
  && String.sub path 0 (String.length r) = r

(* Every source under [roots], stripped, with its set of identifiers. *)
let scanned =
  lazy
    (List.concat_map (fun r -> sources r []) roots
     |> List.map (fun f ->
         let text = strip (read f) in
         (f, text, tokens text)))

(* Whether [name] occurs in a file under [within] other than the .ml
   and .mli of [own] (a path without its extension). *)
let named_elsewhere ~within ~own name =
  List.exists
    (fun (f, _, t) ->
      List.exists (fun r -> under r f) within
      && Filename.remove_extension f <> own
      && Hashtbl.mem t name)
    (Lazy.force scanned)

let offenders () =
  List.concat_map
    (fun (mli, text, _) ->
      let m = module_of mli in
      if not (under "../lib" mli && Filename.check_suffix mli ".mli")
      || List.mem m exempt then []
      else
        let own = Filename.remove_extension mli in
        List.filter_map
          (fun name ->
            if named_elsewhere ~within:roots ~own name then None
            else Some (String.capitalize_ascii m ^ "." ^ name))
          (vals text))
    (Lazy.force scanned)
  |> List.sort_uniq compare

(* A lib/ module that no other library module, benchmark or binary
   names is code nothing runs: tests and examples exercising it do not
   make it part of the system. *)
let unnamed_modules () =
  List.filter_map
    (fun (ml, _, _) ->
      let m = module_of ml in
      if not (under "../lib" ml && Filename.check_suffix ml ".ml")
      || List.mem m exempt then None
      else if
        named_elsewhere ~within:[ "../lib"; "../bench"; "../bin" ]
          ~own:(Filename.remove_extension ml) (String.capitalize_ascii m)
      then None
      else Some (String.capitalize_ascii m))
    (Lazy.force scanned)
  |> List.sort_uniq compare

let test_no_dead_exports () =
  match offenders () with
  | [] -> ()
  | dead ->
    Alcotest.failf "%d exported values have no caller outside their module:\n  %s"
      (List.length dead) (String.concat "\n  " dead)

let test_every_module_runs () =
  match unnamed_modules () with
  | [] -> ()
  | dead ->
    Alcotest.failf
      "%d lib/ modules are named from no other module under lib, bench or \
       bin:\n  %s"
      (List.length dead) (String.concat "\n  " dead)

let () =
  Alcotest.run "spin_exports"
    [ ( "interfaces",
        [ Alcotest.test_case "every lib/ export has a caller" `Quick
            test_no_dead_exports;
          Alcotest.test_case "every lib/ module has a caller" `Quick
            test_every_module_runs ] ) ]

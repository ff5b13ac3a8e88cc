(* Every value a lib/ interface exports has a caller. For each [val] in
   lib/**/*.mli, the name must occur as an identifier in some other
   .ml/.mli under lib, bench (bench/e2e included), bin, examples or
   test; comments and string literals do not count. A value only its
   own module uses belongs out of the interface, and one nobody uses
   belongs out of the tree. The scan is by name, so it can only
   undercount the offenders, never invent one. *)

(* Modules judged whole rather than value by value: the thread
   packages, user-level schedulers, pager and task/address-space
   layers that Tables 3 and 4 should run or lose, and the Figure 5
   RPC and active-message path built on every host. Each is to be
   wired into a measured table or deleted outright; pruning single
   exports first would only churn them. *)
let exempt =
  [ "cthreads"; "osf_threads"; "app_sched"; "write_barrier"; "pager";
    "mach_task"; "addr_space"; "monitor"; "rpc"; "active_msg" ]

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

let offenders () =
  let files = List.concat_map (fun r -> sources r []) roots in
  let stripped = List.map (fun f -> (f, strip (read f))) files in
  let toks = List.map (fun (f, text) -> (f, tokens text)) stripped in
  List.concat_map
    (fun (mli, text) ->
      let m = module_of mli in
      let in_lib = String.length mli > 7 && String.sub mli 0 7 = "../lib/" in
      if not (in_lib && Filename.check_suffix mli ".mli")
      || List.mem m exempt then []
      else
        let own = Filename.remove_extension mli in
        List.filter_map
          (fun name ->
            let named_elsewhere =
              List.exists
                (fun (f, t) ->
                  Filename.remove_extension f <> own && Hashtbl.mem t name)
                toks in
            if named_elsewhere then None
            else Some (String.capitalize_ascii m ^ "." ^ name))
          (vals text))
    stripped
  |> List.sort_uniq compare

let test_no_dead_exports () =
  match offenders () with
  | [] -> ()
  | dead ->
    Alcotest.failf "%d exported values have no caller outside their module:\n  %s"
      (List.length dead) (String.concat "\n  " dead)

let () =
  Alcotest.run "spin_exports"
    [ ( "interfaces",
        [ Alcotest.test_case "every lib/ export has a caller" `Quick
            test_no_dead_exports ] ) ]

type error =
  | Unsafe_object of string
  | Type_mismatch of { symbol : string; expected : Ty.t; found : Ty.t }

exception Link_error of error

let error_to_string = function
  | Unsafe_object name -> Printf.sprintf "object file %s is not safe" name
  | Type_mismatch { symbol; expected; found } ->
    Printf.sprintf "type conflict on %s: expected %s, found %s"
      symbol (Ty.to_string expected) (Ty.to_string found)

type t = {
  name : string;
  objects : Object_file.t list;   (* shared across aggregates *)
  extra_exports : (Symbol.t * Univ.t) list;
}

let create obj =
  if not (Object_file.is_safe obj) then Error (Unsafe_object (Object_file.name obj))
  else Ok { name = Object_file.name obj; objects = [ obj ];
            extra_exports = [] }

let create_exn obj =
  match create obj with
  | Ok d -> d
  | Error e -> raise (Link_error e)

let create_from_module ~name ~exports =
  { name; objects = []; extra_exports = exports }

let name t = t.name

let version t =
  List.fold_left (fun acc o -> max acc (Object_file.version o)) 1 t.objects

let combine ~name a b =
  { name;
    objects = a.objects @ b.objects;
    extra_exports = a.extra_exports @ b.extra_exports }

let export_list t =
  t.extra_exports
  @ List.concat_map Object_file.exports t.objects

let exports t = List.map fst (export_list t)

let unresolved_imports t =
  List.concat_map
    (fun obj ->
      List.filter (fun i -> Option.is_none !(i.Object_file.cell))
        (Object_file.imports obj))
    t.objects

let fully_resolved t = unresolved_imports t = []

let resolve ~source ~target =
  let available = export_list source in
  (* Plan all patches first so a type conflict leaves the target
     untouched. *)
  let rec plan acc = function
    | [] -> Ok (List.rev acc)
    | imp :: rest ->
      let sym = imp.Object_file.import_symbol in
      (match List.find_opt (fun (s, _) -> Symbol.same_name s sym) available with
       | None -> plan acc rest          (* stays unresolved *)
       | Some (found, value) ->
         if Symbol.compatible ~expected:sym ~found then
           plan ((imp, value) :: acc) rest
         else
           Error (Type_mismatch {
             symbol = Symbol.full_name sym;
             expected = sym.Symbol.ty;
             found = found.Symbol.ty })) in
  match plan [] (unresolved_imports target) with
  | Error _ as e -> e
  | Ok patches ->
    List.iter (fun (imp, value) -> imp.Object_file.cell := Some value) patches;
    Ok (List.length patches)

(* A replacement domain must keep every promise the old one made:
   each old export needs a same-named, type-compatible export in the
   replacement, or clients linked against the old interface would call
   into a hole after the swap. Returns the uncovered names (with the
   reason) — empty means safe to swap. *)
let export_gaps t ~exports:old_exports =
  let available = export_list t in
  List.filter_map
    (fun sym ->
      match List.find_opt (fun (s, _) -> Symbol.same_name s sym) available with
      | None -> Some (Symbol.full_name sym ^ " missing")
      | Some (found, _) ->
        if Symbol.compatible ~expected:sym ~found then None
        else
          Some (Printf.sprintf "%s incompatible: expected %s, found %s"
                  (Symbol.full_name sym)
                  (Ty.to_string sym.Symbol.ty)
                  (Ty.to_string found.Symbol.ty)))
    old_exports

let lookup t full =
  List.find_map
    (fun (s, v) -> if String.equal (Symbol.full_name s) full then Some v else None)
    (export_list t)

let initialize t = List.iter Object_file.run_init t.objects

type safety =
  | Compiler_signed
  | Asserted_safe
  | Unsigned

type import = {
  import_symbol : Symbol.t;
  cell : Univ.t option ref;
}

type t = {
  name : string;
  safety : safety;
  version : int;
  exports : (Symbol.t * Univ.t) list;
  imports : import list;
  init : (unit -> unit) option;
  mutable initialized : bool;
}

module Builder = struct
  type obj = t

  type t = {
    b_name : string;
    b_safety : safety;
    mutable b_version : int;
    mutable b_exports : (Symbol.t * Univ.t) list;
    mutable b_imports : import list;
    mutable b_init : (unit -> unit) option;
  }

  let create ~name ~safety () =
    { b_name = name; b_safety = safety; b_version = 1;
      b_exports = []; b_imports = []; b_init = None }

  let set_version b v =
    if v < 1 then invalid_arg "Object_file: version must be >= 1";
    b.b_version <- v

  let export b sym value =
    if List.exists (fun (s, _) -> Symbol.same_name s sym) b.b_exports then
      invalid_arg ("Object_file: duplicate export " ^ Symbol.full_name sym);
    b.b_exports <- b.b_exports @ [ (sym, value) ]

  let import b sym =
    let cell = ref None in
    b.b_imports <- b.b_imports @ [ { import_symbol = sym; cell } ];
    cell

  let set_init b f = b.b_init <- Some f

  let build b =
    { name = b.b_name; safety = b.b_safety; version = b.b_version;
      exports = b.b_exports; imports = b.b_imports; init = b.b_init;
      initialized = false }
end

let name t = t.name
let version t = t.version
let exports t = t.exports
let imports t = t.imports

let run_init t =
  if not t.initialized then begin
    t.initialized <- true;
    match t.init with None -> () | Some f -> f ()
  end

let is_safe t =
  match t.safety with
  | Compiler_signed | Asserted_safe -> true
  | Unsigned -> false

type t = ..

module type Tag = sig
  type a
  type t += T of a
end

type 'a tag = (module Tag with type a = 'a)

(* The name only documents the tag at its definition: a narrow is
   checked by the constructor's identity. *)
let tag (type s) ~name () : s tag =
  ignore name;
  (module struct
    type a = s
    type t += T of a
  end)

let pack (type s) (tag : s tag) (v : s) =
  let module M = (val tag) in
  M.T v

let unpack (type s) (tag : s tag) u : s option =
  let module M = (val tag) in
  match u with
  | M.T v -> Some v
  | _ -> None

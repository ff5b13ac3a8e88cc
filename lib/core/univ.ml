type t = ..

module type Tag = sig
  type a
  type t += T of a
end

type 'a tag = { witness : (module Tag with type a = 'a); tag_name : string }

let tag (type s) ~name () : s tag =
  let module M = struct
    type a = s
    type t += T of a
  end in
  { witness = (module M); tag_name = name }

(* A wrapper constructor pairs the payload with its tag name. *)
type t += Named of string * t

let pack (type s) (tag : s tag) (v : s) =
  let module M = (val tag.witness) in
  Named (tag.tag_name, M.T v)

let unpack (type s) (tag : s tag) u : s option =
  let module M = (val tag.witness) in
  match u with
  | Named (_, M.T v) -> Some v
  | _ -> None

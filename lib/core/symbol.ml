type t = { intf : string; name : string; ty : Ty.t }

let make ~intf ~name ty = { intf; name; ty }

let full_name s = s.intf ^ "." ^ s.name

let same_name a b = String.equal (full_name a) (full_name b)

let compatible ~expected ~found = Ty.equal expected.ty found.ty

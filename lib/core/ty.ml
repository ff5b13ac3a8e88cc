type t =
  | Unit
  | Int
  | Text
  | Opaque of string
  | Proc of t list * t

let rec equal a b =
  match a, b with
  | Unit, Unit | Int, Int | Text, Text -> true
  | Opaque x, Opaque y -> String.equal x y
  | Proc (xs, x), Proc (ys, y) ->
    List.length xs = List.length ys && List.for_all2 equal xs ys && equal x y
  | (Unit | Int | Text | Opaque _ | Proc _), _ -> false

let rec to_string = function
  | Unit -> "unit"
  | Int -> "int"
  | Text -> "text"
  | Opaque n -> n
  | Proc (args, r) ->
    let args = match args with [] -> "unit" | _ -> String.concat " * " (List.map to_string args) in
    "(" ^ args ^ " -> " ^ to_string r ^ ")"

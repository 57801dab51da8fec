(* A named tuple of dimensions, e.g. [S[i,j,k]] or [PE[x,y]]. *)

type t = { tuple : string; dims : string list }

let make tuple dims = { tuple; dims }
let dim t = List.length t.dims

let index t name =
  let rec go i = function
    | [] -> raise Not_found
    | d :: _ when String.equal d name -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.dims

let concat a b = { tuple = a.tuple ^ b.tuple; dims = a.dims @ b.dims }

let to_string t =
  t.tuple ^ "[" ^ String.concat ", " t.dims ^ "]"

let rename_dims t dims =
  assert (List.length dims = List.length t.dims);
  { t with dims }

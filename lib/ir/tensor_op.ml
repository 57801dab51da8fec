(* Tensor-operation IR: a perfectly-nested loop over a box iteration domain
   with one unconditional statement, which is what TENET supports.  Each
   accessed tensor element is given by affine subscripts of the loop
   iterators (the access functions of the paper, Eq. 1). *)

module Isl = Tenet_isl

type direction = Read | Write

type access = {
  tensor : string;
  subscripts : Isl.Aff.t list;
  direction : direction;
}

type iter = { iname : string; lo : int; hi : int } (* inclusive bounds *)

type t = {
  name : string; (* statement name, e.g. "S" *)
  iters : iter list;
  accesses : access list;
}

let make ?(name = "S") ~iters ~accesses () =
  let iter_names = List.map (fun (n, _, _) -> n) iters in
  List.iter
    (fun a ->
      List.iter
        (fun sub ->
          List.iter
            (fun v ->
              if not (List.mem v iter_names) then
                invalid_arg
                  (Printf.sprintf "Tensor_op.make: unknown iterator %s in %s"
                     v a.tensor))
            (Isl.Aff.free_vars sub))
        a.subscripts)
    accesses;
  {
    name;
    iters = List.map (fun (iname, lo, hi) -> { iname; lo; hi }) iters;
    accesses;
  }

let iter_names t = List.map (fun i -> i.iname) t.iters
let n_iters t = List.length t.iters

let extent i = i.hi - i.lo + 1

let n_instances t =
  List.fold_left
    (fun acc i ->
      let e = max 0 (extent i) in
      if e > 0 && acc > max_int / e then
        invalid_arg
          (Printf.sprintf "Tensor_op.n_instances: %s has more instances than \
                           an int holds"
             t.name)
      else acc * e)
    1 t.iters

let iter_bounds t name =
  let i = List.find (fun i -> String.equal i.iname name) t.iters in
  (i.lo, i.hi)

let space t : Isl.Space.t = Isl.Space.make t.name (iter_names t)

(* The iteration domain D_S as a box set. *)
let domain t : Isl.Set.t =
  Isl.Set.box (space t) (List.map (fun i -> (i.lo, i.hi)) t.iters)

let tensors t =
  List.sort_uniq String.compare (List.map (fun a -> a.tensor) t.accesses)

let accesses_of t tensor =
  List.filter (fun a -> String.equal a.tensor tensor) t.accesses

let inputs t =
  List.sort_uniq String.compare
    (List.filter_map
       (fun a -> if a.direction = Read then Some a.tensor else None)
       t.accesses)

let outputs t =
  List.sort_uniq String.compare
    (List.filter_map
       (fun a -> if a.direction = Write then Some a.tensor else None)
       t.accesses)

let tensor_arity t tensor =
  match accesses_of t tensor with
  | [] -> invalid_arg ("Tensor_op.tensor_arity: no access to " ^ tensor)
  | a :: _ -> List.length a.subscripts

(* The access function A_{S,F} = { S[n] -> F[f] } for one tensor, as the
   union over all syntactic accesses to it, restricted to the iteration
   domain. *)
let access_map t tensor : Isl.Map.t =
  let accs = accesses_of t tensor in
  if accs = [] then invalid_arg ("Tensor_op.access_map: no access to " ^ tensor);
  let arity = List.length (List.hd accs).subscripts in
  let ran =
    Isl.Space.make tensor (List.init arity (fun i -> Printf.sprintf "f%d" i))
  in
  let dom_set = domain t in
  let maps =
    List.map
      (fun a ->
        if List.length a.subscripts <> arity then
          invalid_arg ("Tensor_op.access_map: mixed arity for " ^ tensor);
        Isl.Map.intersect_domain
          (Isl.Map.of_exprs (space t) ran a.subscripts)
          dom_set)
      accs
  in
  Isl.Map.union_all maps

(* Number of distinct elements of [tensor] touched by the operation. *)
let footprint t tensor = Isl.Set.card (Isl.Map.range (access_map t tensor))

let to_string t =
  let iters =
    String.concat ", "
      (List.map (fun i -> Printf.sprintf "%d <= %s <= %d" i.lo i.iname i.hi) t.iters)
  in
  let acc a =
    Printf.sprintf "%s%s[%s]"
      (match a.direction with Write -> "write " | Read -> "read ")
      a.tensor
      (String.concat ", " (List.map Isl.Aff.to_string a.subscripts))
  in
  Printf.sprintf "%s: { %s } %s" t.name iters
    (String.concat "; " (List.map acc t.accesses))

(* The dataflow relation Θ (Definition 1): a quasi-affine assignment of
   each loop instance to a spacetime-stamp (PE[p] | T[t]).

   Space-stamp and time-stamp coordinates are quasi-affine expressions of
   the loop iterators; the spacetime tuple is flattened into one range
   space [ST[p..., t...]] for relation algebra. *)

module Isl = Tenet_isl
module Ir = Tenet_ir
module Arch = Tenet_arch

type t = {
  name : string;
  space : Isl.Aff.t list; (* PE coordinates *)
  time : Isl.Aff.t list; (* execution sequence, lexicographic *)
}

let make ~name ~space ~time = { name; space; time }

let n_space t = List.length t.space
let n_time t = List.length t.time

let space_dim_names t = List.init (n_space t) (fun i -> Printf.sprintf "p%d" i)
let time_dim_names t = List.init (n_time t) (fun i -> Printf.sprintf "t%d" i)

let st_space t : Isl.Space.t =
  Isl.Space.make "ST" (space_dim_names t @ time_dim_names t)

(* Θ = { S[n] -> ST[p..., t...] } restricted to the iteration domain. *)
let theta (op : Ir.Tensor_op.t) (df : t) : Isl.Map.t =
  let used =
    List.concat_map Isl.Aff.free_vars (df.space @ df.time)
  in
  let known = Ir.Tensor_op.iter_names op in
  List.iter
    (fun v ->
      if not (List.mem v known) then
        invalid_arg
          (Printf.sprintf "Dataflow.theta: %s references unknown iterator %s"
             df.name v))
    used;
  Isl.Map.intersect_domain
    (Isl.Map.of_exprs (Ir.Tensor_op.space op) (st_space df)
       (df.space @ df.time))
    (Ir.Tensor_op.domain op)

(* Data assignment A_{D,F} = Θ⁻¹ . A_{S,F} (Definition 2). *)
let data_assignment (op : Ir.Tensor_op.t) (df : t) (tensor : string) :
    Isl.Map.t =
  Isl.Map.apply_range (Isl.Map.reverse (theta op df))
    (Ir.Tensor_op.access_map op tensor)

(* Per-dimension inclusive intervals of the time stamps over the iteration
   box (used to build lexicographic successor relations). *)
let time_bounds (op : Ir.Tensor_op.t) (df : t) : (int * int) list =
  let env v = Ir.Tensor_op.iter_bounds op v in
  List.map (Isl.Aff.interval env) df.time

let space_bounds (op : Ir.Tensor_op.t) (df : t) : (int * int) list =
  let env v = Ir.Tensor_op.iter_bounds op v in
  List.map (Isl.Aff.interval env) df.space

(* ------------------------------------------------------------------ *)
(* Validity primitives.                                                *)
(*                                                                     *)
(* Fine-grained, witness-producing facts about a dataflow.  These are  *)
(* the single source of truth for {!first_violation} and for the       *)
(* structured checker in [lib/analysis], so the two can never          *)
(* disagree.                                                           *)
(* ------------------------------------------------------------------ *)

let rank_violation (df : t) (pe : Arch.Pe_array.t) : (int * int) option =
  let r = n_space df and ar = Arch.Pe_array.rank pe in
  if r <> ar then Some (r, ar) else None

(* First space dimension whose interval escapes [0, extent): (dim,
   (lo, hi), extent).  Interval analysis, exact for box domains. *)
let bounds_violation (op : Ir.Tensor_op.t) (df : t) (pe : Arch.Pe_array.t) :
    (int * (int * int) * int) option =
  let dims = Arch.Pe_array.dims pe in
  let rec go i = function
    | [] -> None
    | (lo, hi) :: rest ->
        if lo < 0 || hi >= dims.(i) then Some (i, (lo, hi), dims.(i))
        else go (i + 1) rest
  in
  go 0 (space_bounds op df)

(* A concrete iteration point escaping the array on some space dim, with
   its space stamp: the witness behind {!bounds_violation}. *)
let bounds_witness (op : Ir.Tensor_op.t) (df : t) (pe : Arch.Pe_array.t) :
    (int * int array * int array) option =
  let dims = Arch.Pe_array.dims pe in
  let dom = Ir.Tensor_op.domain op in
  let iters = Ir.Tensor_op.iter_names op in
  let stamp_of n =
    let env v =
      let rec idx i = function
        | [] -> raise Not_found
        | x :: _ when String.equal x v -> i
        | _ :: r -> idx (i + 1) r
      in
      n.(idx 0 iters)
    in
    Array.of_list (List.map (Isl.Aff.eval env) df.space)
  in
  let pieces =
    List.concat
      (List.mapi
         (fun i e ->
           [
             (* e <= -1 *)
             (i, Isl.Aff.Sub (Isl.Aff.Int (-1), e));
             (* e >= dims.(i) *)
             (i, Isl.Aff.Sub (e, Isl.Aff.Int dims.(i)));
           ])
         df.space)
  in
  List.find_map
    (fun (i, ge) ->
      match Isl.Set.sample (Isl.Set.constrain dom ~ges:[ ge ]) with
      | Some n -> Some (i, n, stamp_of n)
      | None -> None)
    pieces

(* (instances, stamps) when two instances share a spacetime-stamp. *)
let conflict_counts (op : Ir.Tensor_op.t) (df : t) : (int * int) option =
  let th = theta op df in
  let pairs = Isl.Map.card th in
  let stamps = Isl.Set.card (Isl.Map.range th) in
  if stamps <> pairs then Some (pairs, stamps) else None

module String_set = Set.Make (String)

(* What stamp coordinates reveal of the iterators, read off the
   expressions with no counting.  Each coordinate is an [Add]/[Sub]/[Neg]
   chain of terms, a nonzero constant factor dropped (c * t determines
   t); once every term but one is a function of pinned iterators, the
   value of that one term is known, and an iterator is pinned when
   - a known term is the iterator itself, a plain coordinate included;
   - both [x mod p] and [x fdiv p] are known terms for one [p]
     (x = p * fl(x / p) + x mod p).
   The rules repeat until nothing changes.  Returns the pinned iterators
   and the known terms.  Sound, incomplete: an iterator left unpinned
   may still be a function of the coordinates. *)
let settle (coords : Isl.Aff.t list) : String_set.t * Isl.Aff.t list =
  let rec terms e acc =
    match e with
    | Isl.Aff.Add (a, b) | Isl.Aff.Sub (a, b) -> terms a (terms b acc)
    | Isl.Aff.Neg a -> terms a acc
    | Isl.Aff.Mul (Isl.Aff.Int c, a) when c <> 0 -> terms a acc
    | Isl.Aff.Mul (a, Isl.Aff.Int c) when c <> 0 -> terms a acc
    | e -> e :: acc
  in
  let chains = List.map (fun e -> terms e []) coords in
  let rec go det =
    let given t =
      List.for_all (fun v -> String_set.mem v det) (Isl.Aff.free_vars t)
    in
    let open_in_chain ts =
      match List.filter (fun t -> not (given t)) ts with
      | [ t ] -> Some t
      | _ -> None
    in
    let known = List.filter_map open_in_chain chains in
    let det' =
      List.fold_left
        (fun d t ->
          match t with
          | Isl.Aff.Var x -> String_set.add x d
          | Isl.Aff.Mod (Isl.Aff.Var x, p)
            when List.mem (Isl.Aff.Fdiv (Isl.Aff.Var x, p)) known ->
              String_set.add x d
          | _ -> d)
        det known
    in
    if String_set.equal det' det then (det, known) else go det'
  in
  go String_set.empty

(* Injectivity: Θ is injective when the whole stamp pins every
   iterator. *)
let injective_by_construction (op : Ir.Tensor_op.t) (df : t) : bool =
  let pinned, _ = settle (df.space @ df.time) in
  List.for_all (fun x -> String_set.mem x pinned) (Ir.Tensor_op.iter_names op)

(* How many values each iterator can take among the instances sharing
   one value of [coords]: 1 when pinned, at most [p] when [x fdiv p] is
   known, and otherwise at most its extent. *)
let stamp_spread (op : Ir.Tensor_op.t) (coords : Isl.Aff.t list) :
    string -> int =
  let pinned, known = settle coords in
  fun x ->
    if String_set.mem x pinned then 1
    else
      let lo, hi = Ir.Tensor_op.iter_bounds op x in
      (* the extent, at most [max_int] *)
      let extent =
        if hi < lo then 0
        else if hi - lo < 0 || hi - lo = max_int then max_int
        else hi - lo + 1
      in
      List.fold_left
        (fun n t ->
          match t with
          | Isl.Aff.Fdiv (Isl.Aff.Var y, p) when p > 0 && String.equal x y ->
              min n p
          | _ -> n)
        extent known

(* A dataflow is valid on an architecture iff (1) the space-stamp rank
   matches the PE array rank, (2) every instance lands inside the array,
   and (3) no two instances share a spacetime-stamp (each PE has one
   MAC).  [space_violation] renders the first failing fact of (1) and
   (2) by interval analysis alone; [first_violation] adds (3): the
   certificate first, and a count of Θ only when the certificate fails.
   Each fact has one text, whichever engine finds it. *)
let space_violation (op : Ir.Tensor_op.t) (df : t) (pe : Arch.Pe_array.t) :
    string option =
  match rank_violation df pe with
  | Some (r, ar) ->
      Some
        (Printf.sprintf "%s: space-stamp rank %d vs PE array rank %d" df.name
           r ar)
  | None -> (
      match bounds_violation op df pe with
      | Some (i, (lo, hi), extent) ->
          Some
            (Printf.sprintf "%s: space dim %d spans [%d, %d] outside [0, %d)"
               df.name i lo hi extent)
      | None -> None)

let conflict_violation (df : t) : string =
  Printf.sprintf "%s: two instances share a spacetime-stamp" df.name

let first_violation (op : Ir.Tensor_op.t) (df : t) (pe : Arch.Pe_array.t) :
    string option =
  match space_violation op df pe with
  | Some _ as v -> v
  | None ->
      if injective_by_construction op df || conflict_counts op df = None then
        None
      else Some (conflict_violation df)

let to_string df =
  let s = String.concat ", " (List.map Isl.Aff.to_string df.space) in
  let t = String.concat ", " (List.map Isl.Aff.to_string df.time) in
  Printf.sprintf "%s: PE[%s] | T[%s]" df.name s t

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

(* Injectivity read off the stamp expressions, with no counting: Θ is
   injective when every iterator is a function of the stamp.  Each
   coordinate is an [Add]/[Sub]/[Neg] chain of terms; once every term
   but one is a function of determined iterators, the value of that one
   term is known, and an iterator is determined when
   - a known term is the iterator itself, a plain coordinate included;
   - both [x mod p] and [x fdiv p] are known terms for one [p]
     (x = p * fl(x / p) + x mod p).
   The rules repeat until nothing changes.  Sound, incomplete: a
   [false] proves nothing. *)
let injective_by_construction (op : Ir.Tensor_op.t) (df : t) : bool =
  let rec terms e acc =
    match e with
    | Isl.Aff.Add (a, b) | Isl.Aff.Sub (a, b) -> terms a (terms b acc)
    | Isl.Aff.Neg a -> terms a acc
    | e -> e :: acc
  in
  let chains = List.map (fun e -> terms e []) (df.space @ df.time) in
  let rec settle det =
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
    if String_set.equal det' det then det else settle det'
  in
  let det = settle String_set.empty in
  List.for_all (fun x -> String_set.mem x det) (Ir.Tensor_op.iter_names op)

(* Θ with a primed copy of the iteration space, for same-space relational
   checks (cf. the primed output tuples of Interconnect). *)
let prime v = v ^ "'"

let theta_primed (op : Ir.Tensor_op.t) (df : t) : Isl.Map.t =
  let iters = Ir.Tensor_op.iter_names op in
  let primed = List.map prime iters in
  let dom' =
    Isl.Space.make (Ir.Tensor_op.space op).Isl.Space.tuple primed
  in
  let exprs' = List.map (Isl.Aff.rename prime) (df.space @ df.time) in
  Isl.Map.intersect_domain
    (Isl.Map.of_exprs dom' (st_space df) exprs')
    (Isl.Set.rename_dims primed (Ir.Tensor_op.domain op))

(* A concrete conflicting pair: two lex-ordered instances with the same
   spacetime-stamp, found by sampling Θ ∘ Θ'⁻¹ below the diagonal. *)
let conflict_witness (op : Ir.Tensor_op.t) (df : t) :
    (int array * int array * int array) option =
  let th = theta op df in
  let conflicts = Isl.Map.apply_range th (Isl.Map.reverse (theta_primed op df)) in
  let iters = Array.of_list (Ir.Tensor_op.iter_names op) in
  let d = Array.length iters in
  let piece j =
    let eqs =
      List.init j (fun e ->
          Isl.Aff.Sub (Isl.Aff.Var iters.(e), Isl.Aff.Var (prime iters.(e))))
    in
    let ges =
      [
        Isl.Aff.Sub
          ( Isl.Aff.Sub (Isl.Aff.Var (prime iters.(j)), Isl.Aff.Var iters.(j)),
            Isl.Aff.Int 1 );
      ]
    in
    Isl.Map.constrain conflicts ~eqs ~ges
  in
  let rec go j =
    if j >= d then None
    else
      match Isl.Set.sample (Isl.Map.wrap (piece j)) with
      | Some p ->
          let n = Array.sub p 0 d and n' = Array.sub p d d in
          let stamp =
            match Isl.Map.eval th n with Some s -> s | None -> [||]
          in
          Some (n, n', stamp)
      | None -> go (j + 1)
  in
  go 0

(* A dataflow is valid on an architecture iff (1) the space-stamp rank
   matches the PE array rank, (2) every instance lands inside the array,
   and (3) no two instances share a spacetime-stamp (each PE has one
   MAC).  [space_violation] renders the first failing fact of (1) and
   (2) by interval analysis alone; [first_violation] adds (3), which
   counts Θ with isl.  Callers wanting structured findings with witness
   points should use [Analysis.Checker.check] instead. *)
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

let first_violation (op : Ir.Tensor_op.t) (df : t) (pe : Arch.Pe_array.t) :
    string option =
  match space_violation op df pe with
  | Some _ as v -> v
  | None -> (
      match conflict_counts op df with
      | Some (pairs, stamps) ->
          Some
            (Printf.sprintf "%s: %d instances map to %d spacetime-stamps"
               df.name pairs stamps)
      | None -> None)

let to_string df =
  let s = String.concat ", " (List.map Isl.Aff.to_string df.space) in
  let t = String.concat ", " (List.map Isl.Aff.to_string df.time) in
  Printf.sprintf "%s: PE[%s] | T[%s]" df.name s t

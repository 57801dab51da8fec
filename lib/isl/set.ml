(* Integer sets: finite unions of {!Bset} basic sets over one space. *)

type t = { space : Space.t; disjuncts : Bset.t list }

let dim t = Space.dim t.space
let of_bsets space disjuncts = { space; disjuncts }
let disjuncts t = t.disjuncts

let check_space a b =
  if Space.dim a.space <> Space.dim b.space then
    invalid_arg "Set: dimension mismatch"

(* A box [lo_i <= x_i <= hi_i] (inclusive on both ends). *)
let box space bounds =
  let n = Space.dim space in
  if List.length bounds <> n then invalid_arg "Set.box: arity mismatch";
  let b = ref (Bset.universe n) in
  List.iteri
    (fun i (lo, hi) ->
      b := Bset.lower_bound !b ~dim:i lo;
      b := Bset.upper_bound !b ~dim:i hi)
    bounds;
  { space; disjuncts = [ !b ] }

let union a b =
  check_space a b;
  { a with disjuncts = a.disjuncts @ b.disjuncts }

let intersect a b =
  check_space a b;
  let ds =
    List.concat_map
      (fun da -> List.map (fun db -> Bset.meet da db) b.disjuncts)
      a.disjuncts
  in
  { a with disjuncts = ds }

let subtract a b =
  check_space a b;
  (* a \ (b1 u b2 ...) = ((a \ b1) \ b2) ... *)
  let sub_one pieces bb =
    List.concat_map (fun p -> Bset.subtract p bb) pieces
  in
  let ds = List.fold_left sub_one a.disjuncts b.disjuncts in
  { a with disjuncts = ds }

let card t = Count.count_union t.disjuncts
let is_empty t = Count.is_empty_union t.disjuncts
let mem t p = Count.mem_union t.disjuncts p
let iter_points f t = Count.iter_union t.disjuncts f
let sample t = List.find_map Count.sample_bset t.disjuncts

(* Keep only the dims where [keep] is true; the rest are projected out. *)
let project ~keep t =
  let keep_arr = Array.of_list keep in
  if Array.length keep_arr <> dim t then invalid_arg "Set.project: arity";
  let dims' =
    List.filteri (fun i _ -> keep_arr.(i)) t.space.Space.dims
  in
  {
    space = { t.space with Space.dims = dims' };
    disjuncts = List.map (Bset.project ~keep:keep_arr) t.disjuncts;
  }

let fix ~dim v t =
  { t with disjuncts = List.map (fun b -> Bset.fix b ~dim v) t.disjuncts }

(* Add constraints given as quasi-affine expressions over the space's
   dimension names: [eqs] must equal 0, [ges] must be >= 0. *)
let constrain ?(eqs = []) ?(ges = []) t =
  let n = dim t in
  let lookup name = Space.index t.space name in
  let build () =
    let ctx = Aff.make_ctx n in
    let leqs = List.map (Aff.lower ctx ~lookup) eqs in
    let lges = List.map (Aff.lower ctx ~lookup) ges in
    Aff.to_bset ctx ~eqs:leqs ~ges:lges
  in
  let extra = build () in
  { t with disjuncts = List.map (fun b -> Bset.meet b extra) t.disjuncts }

let rename_dims names t = { t with space = Space.rename_dims t.space names }
let to_string t = Printer.set_to_string t.space t.disjuncts

(* Bounds of a dimension across the whole set (min, max); None if empty. *)
let dim_bounds ~dim t =
  let lo = ref max_int and hi = ref min_int in
  iter_points (fun p ->
      if p.(dim) < !lo then lo := p.(dim);
      if p.(dim) > !hi then hi := p.(dim))
    t;
  if !hi < !lo then None else Some (!lo, !hi)

(* Precompiled membership tester (compiles the constraint system once). *)
let mem_fn t = Count.make_mem_union t.disjuncts

let is_subset a b =
  check_space a b;
  is_empty (subtract a b)

let equal_sets a b = is_subset a b && is_subset b a

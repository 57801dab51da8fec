(* Parametric metric templates — compile a dataflow once, answer any
   problem size by substitution (ROADMAP item 1; PAPER.md §2's Barvinok
   substitution, generalized from counts to the full metric record).

   TENET's quasi-affine dataflows are periodic in their iteration dims:
   within a residue class of the extent modulo the dim's tiling period,
   every integer metric (instances, timestamps, volumes, footprints,
   stamped cycles) is a polynomial of low per-dim degree in the extents.
   A template exploits that by fitting, per residue class, the exact
   tensor-product Lagrange interpolant through concrete measurements at
   a few small sample extents — exact rationals throughout, so the fit
   is an identity rather than an approximation — and *verifying* the
   fit on a held-out larger sample before trusting it.  Instantiation
   then evaluates quasi-polynomials ({!Tenet_isl.Qpoly.eval}): no
   enumeration, no re-planning, O(1) in the problem size.

   The derived float metrics (utilizations, delays, latency, energy,
   bandwidths) are re-assembled from the integer vector by
   {!Metrics.assemble}, as a concrete run's are — so an instantiation
   that covers the integer vector reproduces the concrete metrics byte
   for byte.

   Anything that resists (an unfit class, an extent below the sample
   floor, a non-integral evaluation) falls back to the concrete engine;
   [template.*] counters record the split, and under
   [TENET_COUNT_VERIFY=1] every instantiation is cross-checked against
   a fresh concrete analysis (a disagreement raises
   {!Tenet_isl.Count.Verify_mismatch}, surfaced as TN012). *)

module Ir = Tenet_ir
module Arch = Tenet_arch
module Df = Tenet_dataflow
module Obs = Tenet_obs
module Isl = Tenet_isl
module Qpoly = Isl.Qpoly

let c_class_fits = Obs.counter "template.class_fits"
let c_class_unfit = Obs.counter "template.class_unfit"
let c_instantiations = Obs.counter "template.instantiations"
let c_fallbacks = Obs.counter "template.fallbacks"

(* Re-bound the named iterators to the given extents (keeping each
   dim's origin).  Extents may exceed the op's original bounds: the
   template answers sizes never seen before. *)
let shrink_op (op : Ir.Tensor_op.t) (assignment : (string * int) list) :
    Ir.Tensor_op.t =
  {
    op with
    Ir.Tensor_op.iters =
      List.map
        (fun it ->
          match List.assoc_opt it.Ir.Tensor_op.iname assignment with
          | Some extent ->
              { it with Ir.Tensor_op.hi = it.Ir.Tensor_op.lo + extent - 1 }
          | None -> it)
        op.Ir.Tensor_op.iters;
  }

(* The tiling period applied to [dim] by the dataflow's stamps (the
   modulus or divisor of the innermost mod/fdiv on the dim), when any:
   metrics repeat their polynomial shape with this period. *)
let period_of (df : Df.Dataflow.t) dim : int option =
  let rec modulus_of (e : Isl.Aff.t) =
    match e with
    | Isl.Aff.Mod (Isl.Aff.Var d, p) when String.equal d dim -> Some p
    | Isl.Aff.Fdiv (Isl.Aff.Var d, p) when String.equal d dim -> Some p
    | Isl.Aff.Var _ | Isl.Aff.Int _ -> None
    | Isl.Aff.Neg a | Isl.Aff.Abs a | Isl.Aff.Fdiv (a, _) | Isl.Aff.Mod (a, _)
      ->
        modulus_of a
    | Isl.Aff.Add (a, b) | Isl.Aff.Sub (a, b) | Isl.Aff.Mul (a, b) -> (
        match modulus_of a with Some p -> Some p | None -> modulus_of b)
  in
  List.fold_left
    (fun acc e -> match acc with Some _ -> acc | None -> modulus_of e)
    None
    (df.Df.Dataflow.space @ df.Df.Dataflow.time)

(* ------------------------------------------------------------------ *)
(* The integer metric vector.                                          *)
(* ------------------------------------------------------------------ *)

(* Everything {!Metrics.assemble} consumes, as exact integers: the
   float metrics are all functions of these plus the arch spec.
   [busiest] round-trips through [max_utilization] exactly (it is
   busiest / pe_size in binary floating point), [stamped_cycles] through
   [latency_stamped]. *)
let vector_of (m : Metrics.t) : int array =
  let busiest =
    int_of_float
      (Float.round (m.Metrics.max_utilization *. float_of_int m.Metrics.pe_size))
  in
  let stamped = int_of_float m.Metrics.latency_stamped in
  Array.of_list
    (m.Metrics.n_instances :: m.Metrics.n_timestamps :: busiest :: stamped
    :: List.concat_map
         (fun tm ->
           [
             tm.Metrics.volumes.Metrics.total;
             tm.Metrics.volumes.Metrics.temporal_reuse;
             tm.Metrics.volumes.Metrics.spatial_reuse;
             tm.Metrics.footprint;
           ])
         m.Metrics.per_tensor)

let component_names (skeleton : Metrics.t) : string list =
  [ "n_instances"; "n_timestamps"; "busiest_pe_instances"; "stamped_cycles" ]
  @ List.concat_map
      (fun tm ->
        let t = tm.Metrics.tensor in
        [
          t ^ ".total_volume";
          t ^ ".temporal_reuse";
          t ^ ".spatial_reuse";
          t ^ ".footprint";
        ])
      skeleton.Metrics.per_tensor

(* The per-tensor rows of [skeleton] with the counts of [vec]. *)
let per_tensor_of_vector (skeleton : Metrics.t) (vec : int array) :
    Metrics.tensor_metrics list =
  List.mapi
    (fun idx tm ->
      let base = 4 + (4 * idx) in
      let total = vec.(base)
      and temporal_reuse = vec.(base + 1)
      and spatial_reuse = vec.(base + 2) in
      {
        tm with
        Metrics.volumes =
          {
            Metrics.total;
            temporal_reuse;
            spatial_reuse;
            unique = total - temporal_reuse - spatial_reuse;
          };
        footprint = vec.(base + 3);
      })
    skeleton.Metrics.per_tensor

(* Reassemble a full metric record from the integer vector through
   {!Metrics.assemble}, the assembly a concrete run uses: the derived
   floats are bit-identical to a concrete run at the same sizes. *)
let metrics_of_vector (skeleton : Metrics.t) (spec : Arch.Spec.t)
    (vec : int array) : Metrics.t =
  Metrics.assemble ~spec ~dataflow:skeleton.Metrics.dataflow
    ~per_tensor:(per_tensor_of_vector skeleton vec)
    ~n_instances:vec.(0) ~n_timestamps:vec.(1) ~busiest:vec.(2)
    ~stamped_cycles:vec.(3) ()

(* ------------------------------------------------------------------ *)
(* Templates.                                                          *)
(* ------------------------------------------------------------------ *)

type class_model =
  | Fitted of {
      qps : Qpoly.t array;
          (* one quasi-polynomial per vector component, variables are
             parameter indices (valued by extent) *)
      skeleton : Metrics.t;
      degree : int; (* per-dim polynomial degree of the fit *)
      floor : int array;
          (* per-param smallest sampled extent: the fit is certified
             from here up only — transients (e.g. a systolic pipeline
             still filling) make small extents genuinely non-polynomial *)
    }
  | Unfit

type t = {
  spec : Arch.Spec.t;
  op : Ir.Tensor_op.t;
  df : Df.Dataflow.t;
  adjacency : Df.Spacetime.adjacency;
  validate : bool;
  window : int;
  params : string array;
  periods : int array;
  domain_qp : Qpoly.t option;
      (* |iteration domain| in the parameters, from the symbolic counting
         engine — the parametric n_instances, for display/cross-checks *)
  classes : (int list, class_model) Hashtbl.t; (* residue vector -> fit *)
  mutex : Mutex.t;
}

let params t = Array.to_list t.params

(* Parametric count of the op's iteration domain: a box whose
   param-dim widths are the parameters themselves. *)
let domain_count (op : Ir.Tensor_op.t) (params : string array) :
    Qpoly.t option =
  let h = Array.length params in
  let iters = op.Ir.Tensor_op.iters in
  let nvis = h + List.length iters in
  let param_index d =
    let rec go i = if i >= h then None else if String.equal params.(i) d then Some i else go (i + 1) in
    go 0
  in
  let cons = ref [] in
  List.iteri
    (fun k (it : Ir.Tensor_op.iter) ->
      let v = h + k in
      let a = Array.make nvis 0 in
      a.(v) <- 1;
      cons := { Isl.Bset.a; k = -it.Ir.Tensor_op.lo; eq = false } :: !cons;
      let a = Array.make nvis 0 in
      a.(v) <- -1;
      match param_index it.Ir.Tensor_op.iname with
      | Some i ->
          (* x <= lo + e_i - 1 *)
          a.(i) <- 1;
          cons :=
            { Isl.Bset.a; k = it.Ir.Tensor_op.lo - 1; eq = false } :: !cons
      | None -> cons := { Isl.Bset.a; k = it.Ir.Tensor_op.hi; eq = false } :: !cons)
    iters;
  Isl.Count.count_bset_param ~n_params:h
    (Isl.Bset.add_cons (Isl.Bset.universe nvis) !cons)

let compile ?(adjacency : Df.Spacetime.adjacency = `Inner_step)
    ?(validate = true) ?(window = 1) (spec : Arch.Spec.t)
    (op : Ir.Tensor_op.t) (df : Df.Dataflow.t) ~(params : string list) : t =
  let names = Ir.Tensor_op.iter_names op in
  List.iter
    (fun d ->
      if not (List.mem d names) then
        invalid_arg
          (Printf.sprintf "Template.compile: %s is not an iterator of %s" d
             op.Ir.Tensor_op.name))
    params;
  let rec dups = function
    | [] -> ()
    | d :: tl ->
        if List.mem d tl then
          invalid_arg (Printf.sprintf "Template.compile: duplicate param %s" d)
        else dups tl
  in
  dups params;
  let params = Array.of_list params in
  let periods =
    Array.map
      (fun d -> match period_of df d with Some p -> p | None -> 4)
      params
  in
  {
    spec;
    op;
    df;
    adjacency;
    validate;
    window;
    params;
    periods;
    domain_qp = domain_count op params;
    classes = Hashtbl.create 8;
    mutex = Mutex.create ();
  }

(* ------------------------------------------------------------------ *)
(* Per-residue-class fitting.                                          *)
(* ------------------------------------------------------------------ *)

(* Concrete analysis at a corner beyond this size would cost more than
   it saves; such classes stay on the concrete path. *)
let max_corner_instances = 20_000_000

(* basis_j(x) = prod_{k<>j} (x - x_k) / (x_j - x_k), exact. *)
let lagrange_qp ~var ~(nodes : int array) (j : int) : Qpoly.t =
  let num = ref Qpoly.one and den = ref 1 in
  Array.iteri
    (fun k xk ->
      if k <> j then begin
        num := Qpoly.mul !num (Qpoly.sub (Qpoly.var var) (Qpoly.of_int xk));
        den := !den * (nodes.(j) - xk)
      end)
    nodes;
  Qpoly.scale (Qpoly.Q.make 1 !den) !num

let fit_class (t : t) (residues : int array) : class_model =
  let h = Array.length residues in
  let cache : (int list, int array * Metrics.t) Hashtbl.t =
    Hashtbl.create 32
  in
  let eval_at (extents : int array) : int array * Metrics.t =
    let key = Array.to_list extents in
    match Hashtbl.find_opt cache key with
    | Some v -> v
    | None ->
        let assignment =
          List.mapi (fun i d -> (d, extents.(i))) (Array.to_list t.params)
        in
        let small = shrink_op t.op assignment in
        if Ir.Tensor_op.n_instances small > max_corner_instances then
          raise Exit;
        let m =
          Concrete.analyze ~adjacency:t.adjacency ~validate:t.validate
            ~window:t.window t.spec small t.df
        in
        let v = (vector_of m, m) in
        Hashtbl.add cache key v;
        v
  in
  (* [nodes_per_dim] sample extents per dim (degree nodes_per_dim - 1)
     starting [base] periods above the residue, plus one held-out
     verification point per dim beyond the last node: a polynomial of
     per-dim degree <= nodes_per_dim that agrees with the interpolant at
     nodes_per_dim + 1 points per dim *is* the interpolant, so within
     the periodicity assumption the holdout check certifies the fit.
     Escalating [base] skips start-up transients (a systolic pipeline
     still filling) that make the smallest extents non-polynomial. *)
  let try_degree ~base nodes_per_dim =
    let nodes =
      Array.init h (fun i ->
          Array.init nodes_per_dim (fun j ->
              residues.(i) + ((base + j) * t.periods.(i))))
    in
    let holdout =
      Array.init h (fun i ->
          residues.(i) + ((base + nodes_per_dim) * t.periods.(i)))
    in
    let ncorners = Tenet_util.Int_math.pow nodes_per_dim h in
    let qps = ref [||] and skeleton = ref None in
    for c = 0 to ncorners - 1 do
      (* mixed-radix digits of [c] select one node per dim *)
      let extents = Array.make h 0 in
      let rem = ref c in
      for i = 0 to h - 1 do
        let j = !rem mod nodes_per_dim in
        rem := !rem / nodes_per_dim;
        extents.(i) <- nodes.(i).(j)
      done;
      let vec, m = eval_at extents in
      if !skeleton = None then skeleton := Some m;
      let basis = ref Qpoly.one in
      let rem = ref c in
      for i = 0 to h - 1 do
        let j = !rem mod nodes_per_dim in
        rem := !rem / nodes_per_dim;
        basis := Qpoly.mul !basis (lagrange_qp ~var:i ~nodes:nodes.(i) j)
      done;
      if Array.length !qps = 0 then
        qps := Array.make (Array.length vec) Qpoly.zero;
      Array.iteri
        (fun comp v ->
          !qps.(comp) <-
            Qpoly.add !qps.(comp) (Qpoly.scale (Qpoly.Q.of_int v) !basis))
        vec
    done;
    let qps = !qps and skeleton = Option.get !skeleton in
    (* holdout verification *)
    let hvec, _ = eval_at holdout in
    let dbg = Sys.getenv_opt "TENET_TEMPLATE_DEBUG" <> None in
    let ok =
      try
        Array.length hvec = Array.length qps
        && Array.for_all (fun x -> x)
             (Array.mapi
                (fun comp expect ->
                  let got = Qpoly.eval (fun i -> holdout.(i)) qps.(comp) in
                  if dbg && got <> expect then
                    Printf.eprintf
                      "[template] holdout miss comp=%d expect=%d got=%d qp=%s\n%!"
                      comp expect got
                      (Qpoly.to_string qps.(comp));
                  got = expect)
                hvec)
      with Invalid_argument msg ->
        if dbg then Printf.eprintf "[template] holdout raise: %s\n%!" msg;
        false
    in
    if ok then
      Some
        (Fitted
           {
             qps;
             skeleton;
             degree = nodes_per_dim - 1;
             floor = Array.map (fun ns -> ns.(0)) nodes;
           })
    else None
  in
  let rec ladder = function
    | [] -> None
    | (base, deg) :: rest -> (
        match try_degree ~base deg with
        | Some f -> Some f
        | None -> ladder rest)
  in
  (* deeper bases skip longer start-up transients: a systolic skew over
     a p x p array takes ~2p cycles to fill, which can exceed several
     periods of a finely-tiled dim *)
  match ladder [ (2, 2); (2, 3); (3, 2); (3, 3); (4, 2); (4, 3); (6, 2) ] with
  | Some f ->
      Obs.incr c_class_fits;
      f
  | None ->
      Obs.incr c_class_unfit;
      Unfit
  | exception (Exit | Concrete.Invalid_dataflow _) ->
      Obs.incr c_class_unfit;
      Unfit

let class_of (t : t) (extents : int array) : class_model option =
  (* Below residue + 2 periods no fit can cover the size (the ladder's
     lowest sample node): skip fitting, the concrete engine handles it. *)
  let residues = Array.mapi (fun i e -> e mod t.periods.(i)) extents in
  let in_range =
    let ok = ref true in
    Array.iteri
      (fun i e -> if e < residues.(i) + (2 * t.periods.(i)) then ok := false)
      extents;
    !ok
  in
  if not in_range then None
  else begin
    let key = Array.to_list residues in
    Mutex.lock t.mutex;
    let cached = Hashtbl.find_opt t.classes key in
    Mutex.unlock t.mutex;
    match cached with
    | Some m -> Some m
    | None ->
        (* fit outside the lock: a racing duplicate fit is deterministic
           and benign, and fitting runs concrete analyses *)
        let m = fit_class t residues in
        Mutex.lock t.mutex;
        let m =
          match Hashtbl.find_opt t.classes key with
          | Some prior -> prior
          | None ->
              Hashtbl.add t.classes key m;
              m
        in
        Mutex.unlock t.mutex;
        Some m
  end

(* ------------------------------------------------------------------ *)
(* Instantiation.                                                      *)
(* ------------------------------------------------------------------ *)

let extents_of (t : t) (sizes : (string * int) list) : int array =
  List.iter
    (fun (d, e) ->
      if not (Array.exists (String.equal d) t.params) then
        invalid_arg
          (Printf.sprintf "Template: %s is not a parameter (have %s)" d
             (String.concat "," (Array.to_list t.params)));
      if e < 1 then
        invalid_arg (Printf.sprintf "Template: extent %d for %s" e d))
    sizes;
  Array.map
    (fun d ->
      match List.assoc_opt d sizes with
      | Some e -> e
      | None ->
          let lo, hi = Ir.Tensor_op.iter_bounds t.op d in
          hi - lo + 1)
    t.params

let try_instantiate (t : t) ~(sizes : (string * int) list) : Metrics.t option
    =
  let extents = extents_of t sizes in
  match class_of t extents with
  | None | Some Unfit ->
      Obs.incr c_fallbacks;
      None
  | Some (Fitted { floor; _ })
    when Array.exists (fun i -> extents.(i) < floor.(i))
           (Array.init (Array.length extents) Fun.id) ->
      Obs.incr c_fallbacks;
      None
  | Some (Fitted { qps; skeleton; _ }) -> (
      match Array.map (Qpoly.eval (fun i -> extents.(i))) qps with
      | exception Invalid_argument _ ->
          Obs.incr c_fallbacks;
          None
      | vec ->
          let m = metrics_of_vector skeleton t.spec vec in
          if Isl.Count.verify_mode () then begin
            let assignment =
              List.mapi (fun i d -> (d, extents.(i))) (Array.to_list t.params)
            in
            let reference =
              vector_of
                (Concrete.analyze ~adjacency:t.adjacency ~validate:t.validate
                   ~window:t.window t.spec
                   (shrink_op t.op assignment)
                   t.df)
            in
            let names = Array.of_list (component_names skeleton) in
            Array.iteri
              (fun comp v ->
                if reference.(comp) <> v then
                  raise
                    (Isl.Count.Verify_mismatch
                       {
                         fast = v;
                         reference = reference.(comp);
                         set =
                           Printf.sprintf
                             "metric template %s of %s under %s at (%s)"
                             names.(comp) t.op.Ir.Tensor_op.name
                             t.df.Df.Dataflow.name
                             (String.concat ","
                                (Array.to_list
                                   (Array.map string_of_int extents)));
                       }))
              vec
          end;
          Obs.incr c_instantiations;
          Some m)

let instantiate (t : t) ~(sizes : (string * int) list) : Metrics.t =
  match try_instantiate t ~sizes with
  | Some m -> m
  | None ->
      let extents = extents_of t sizes in
      let assignment =
        List.mapi (fun i d -> (d, extents.(i))) (Array.to_list t.params)
      in
      Concrete.analyze ~adjacency:t.adjacency ~validate:t.validate
        ~window:t.window t.spec
        (shrink_op t.op assignment)
        t.df

let closed_forms (t : t) ~(sizes : (string * int) list) :
    (string * string) list =
  let extents = extents_of t sizes in
  match class_of t extents with
  | None | Some Unfit -> []
  | Some (Fitted { qps; skeleton; _ }) ->
      let name i = t.params.(i) in
      let forms =
        List.mapi
          (fun comp cname -> (cname, Qpoly.to_string_with name qps.(comp)))
          (component_names skeleton)
      in
      let forms =
        match t.domain_qp with
        | Some dq -> ("domain_points", Qpoly.to_string_with name dq) :: forms
        | None -> forms
      in
      forms

let domain_closed_form (t : t) : string option =
  Option.map (Qpoly.to_string_with (fun i -> t.params.(i))) t.domain_qp

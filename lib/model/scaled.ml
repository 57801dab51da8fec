(* Scaled analysis for large layers — the substitute for Barvinok's
   symbolic counting (DESIGN.md, substitution table).

   TENET's quasi-affine dataflows are periodic in their sequential loop
   dimensions: after the first period, every additional iteration of an
   outer dim contributes the same per-period volumes.  Hence every integer
   metric (TotalVolume, reuse volumes, timestamps, instances) is
   *multilinear* in the extents of those dims once the extents exceed one
   period.  We exploit this by measuring the metrics exactly on the 2^h
   corner combinations of two sample extents per scaled dim, fitting the
   unique multilinear interpolant, and evaluating it at the full extents.

   Exactness on in-range problems is covered by unit tests
   (test_scaled.ml); callers are responsible for choosing scaled dims that
   are sequential (not skewed into space stamps), which holds for the
   channel/spatial dims of the large layers in the paper's Table IV. *)

module Ir = Tenet_ir
module Arch = Tenet_arch
module Df = Tenet_dataflow
module Obs = Tenet_obs

let c_corners = Obs.counter "scaled.corners_evaluated"
let c_template_exact = Obs.counter "scaled.template_exact"
let c_interpolated = Obs.counter "scaled.interpolated"

type spec_dim = { dim : string; sample_lo : int; sample_hi : int }

(* Default samples: two and four periods of the dim's tiling (or 8 and 16
   iterations when untiled), clamped to the full extent. *)
let default_samples (op : Ir.Tensor_op.t) (df : Df.Dataflow.t) dim =
  let lo, hi = Ir.Tensor_op.iter_bounds op dim in
  let extent = hi - lo + 1 in
  let base = match Template.period_of df dim with Some p -> p | None -> 4 in
  let s_lo = min extent (2 * base) and s_hi = min extent (4 * base) in
  { dim; sample_lo = s_lo; sample_hi = s_hi }

let shrink_op = Template.shrink_op

(* Multilinear (tensor-product linear) extrapolation from 2^h corners.

   When no explicit [spec_dims] override the sampling (callers that pass
   one are deliberately exercising the interpolant), a parametric
   {!Template} is tried first: where its per-residue-class fit covers
   the full extents the answer is *exact* — byte-identical to a concrete
   analysis, including [latency_stamped] and [max_utilization], which
   the interpolant only approximates.  The corner interpolant remains
   the fallback for sizes or classes the template refuses. *)
let analyze ?(adjacency : Df.Spacetime.adjacency = `Inner_step)
    ?(validate = true) ?spec_dims (spec : Arch.Spec.t) (op : Ir.Tensor_op.t)
    (df : Df.Dataflow.t) ~(scale_dims : string list) : Metrics.t =
  let template_first () =
    if spec_dims <> None || scale_dims = [] then None
    else
      match
        Template.compile ~adjacency ~validate spec op df ~params:scale_dims
      with
      | exception Invalid_argument _ -> None
      | tpl -> Template.try_instantiate tpl ~sizes:[]
  in
  match template_first () with
  | Some m ->
      Obs.incr c_template_exact;
      m
  | None ->
  let sdims =
    match spec_dims with
    | Some s -> s
    | None -> List.map (default_samples op df) scale_dims
  in
  (* dims whose sample span is degenerate are analyzed at full size *)
  let sdims = List.filter (fun s -> s.sample_lo < s.sample_hi) sdims in
  let h = List.length sdims in
  if h = 0 then Concrete.analyze ~adjacency ~validate spec op df
  else begin
    Obs.with_span ~args:[ ("dataflow", df.Df.Dataflow.name) ] "scaled.analyze"
    @@ fun () ->
    Obs.incr c_interpolated;
    let corners = Tenet_util.Int_math.pow 2 h in
    let corner_m =
      Array.init corners (fun c ->
          Obs.incr c_corners;
          let assignment =
            List.mapi
              (fun i s ->
                ( s.dim,
                  if c land (1 lsl i) <> 0 then s.sample_hi else s.sample_lo ))
              sdims
          in
          Obs.with_span ~args:[ ("corner", string_of_int c) ] "scaled.corner"
            (fun () ->
              Concrete.analyze ~adjacency ~validate spec
                (shrink_op op assignment) df))
    in
    let corner_vec =
      Array.map
        (fun m -> Array.map float_of_int (Template.vector_of m))
        corner_m
    in
    let full_extent d =
      let lo, hi = Ir.Tensor_op.iter_bounds op d in
      float_of_int (hi - lo + 1)
    in
    (* Lagrange weights per corner *)
    let weight c =
      List.fold_left
        (fun (acc, i) s ->
          let x = full_extent s.dim in
          let x0 = float_of_int s.sample_lo and x1 = float_of_int s.sample_hi in
          let w =
            if c land (1 lsl i) <> 0 then (x -. x0) /. (x1 -. x0)
            else (x1 -. x) /. (x1 -. x0)
          in
          (acc *. w, i + 1))
        (1., 0) sdims
      |> fst
    in
    let dim_v = Array.length corner_vec.(0) in
    let out = Array.make dim_v 0. in
    for c = 0 to corners - 1 do
      let w = weight c in
      for i = 0 to dim_v - 1 do
        out.(i) <- out.(i) +. (w *. corner_vec.(c).(i))
      done
    done;
    let first = corner_m.(0) in
    let vec = Array.map (fun x -> int_of_float (Float.round x)) out in
    (* The instance, stamp and volume counts are multilinear; the
       busiest stamp and the stamped cycles are not, so their
       interpolants are dropped: the first corner's max utilization is
       representative, and latency is priced by the overlap formula. *)
    Metrics.assemble ~spec ~dataflow:first.Metrics.dataflow
      ~per_tensor:(Template.per_tensor_of_vector first vec)
      ~n_instances:vec.(0) ~n_timestamps:vec.(1)
      ~busiest:(Template.vector_of first).(2) ()
  end

(* Figure 7: large-scale applications (Table IV) — normalized latency and
   scratchpad-bandwidth requirement of the best TENET dataflow vs the
   best data-centric-expressible dataflow.

   Per layer: candidates are generated from the layer's own loop dims,
   pre-screened exactly on a probe-sized layer, and the finalists
   re-evaluated on the full layer with multilinear scaled analysis.  ALS
   and Transformer have no data-centric equivalent in MAESTRO (the paper
   could not run them); we report TENET numbers and mark the baseline
   n/a when the expressible subspace is empty. *)

module Ir = Tenet.Ir
module Arch = Tenet.Arch
module Df = Tenet.Dataflow
module M = Tenet.Model
module Dse = Tenet.Dse.Dse
module W = Tenet.Workloads.Layers

let probe_extent = 8

let probe_of (op : Ir.Tensor_op.t) =
  {
    op with
    Ir.Tensor_op.iters =
      List.map
        (fun it ->
          let ext = min (Ir.Tensor_op.extent it) probe_extent in
          { it with Ir.Tensor_op.hi = it.Ir.Tensor_op.lo + ext - 1 })
        op.Ir.Tensor_op.iters;
  }

(* Best (TENET, data-centric) scaled metrics for one layer. *)
let explore_layer (spec : Arch.Spec.t) (layer : W.layer) =
  let op = layer.W.op in
  let cands = Dse.candidates_2d op ~p:8 in
  let probe = probe_of op in
  let screened =
    (Dse.search ~mode:Dse.Exhaustive ~objective:Dse.Latency spec probe cands)
      .Dse.outcomes
  in
  let finalists pred =
    let rec take n = function
      | o :: rest when n > 0 -> o.Dse.dataflow :: take (n - 1) rest
      | _ -> []
    in
    take 2 (List.filter pred screened)
  in
  (* All candidate stamps are periodic (mod/div tiles or plain dims), so
     every large dim is multilinear in its extent from one period on;
     sample at 1 and 2 periods to keep the corner problems tiny. *)
  let eval_full df =
    let scale_dims =
      List.filter
        (fun it -> Ir.Tensor_op.extent it > 16)
        op.Ir.Tensor_op.iters
      |> List.map (fun it -> it.Ir.Tensor_op.iname)
    in
    let spec_dims =
      List.map
        (fun d ->
          let s = M.Scaled.default_samples op df d in
          {
            s with
            M.Scaled.sample_lo = max 2 (s.M.Scaled.sample_lo / 2);
            sample_hi = max 4 (s.M.Scaled.sample_hi / 2);
          })
        scale_dims
    in
    match M.Scaled.analyze ~spec_dims spec op df ~scale_dims with
    | m -> Some (df, m)
    | exception _ -> None
  in
  let best dfs =
    List.fold_left
      (fun acc df ->
        match eval_full df with
        | None -> acc
        | Some (df, m) -> (
            match acc with
            | Some (_, bm) when bm.M.Metrics.latency <= m.M.Metrics.latency ->
                acc
            | _ -> Some (df, m)))
      None dfs
  in
  ( best (finalists (fun _ -> true)),
    best (finalists (fun o -> o.Dse.expressible)) )

let show_app ?(maestro_supported = true) name (layers : W.layer list) spec =
  let t_lat = ref 0. and d_lat = ref 0. and ideal = ref 0. in
  let t_sbw = ref 0. and d_sbw = ref 0. and have_d = ref true in
  let (), _ =
    Bench_util.phase ("explore " ^ name) @@ fun () ->
  List.iter
    (fun layer ->
      match explore_layer spec layer with
      | Some (_, tm), dres ->
          ideal :=
            !ideal
            +. (float_of_int tm.M.Metrics.n_instances
               /. float_of_int tm.M.Metrics.pe_size);
          t_lat := !t_lat +. tm.M.Metrics.latency;
          t_sbw := Float.max !t_sbw tm.M.Metrics.sbw;
          (match dres with
          | Some (_, dm) when maestro_supported ->
              d_lat := !d_lat +. dm.M.Metrics.latency;
              d_sbw := Float.max !d_sbw dm.M.Metrics.sbw
          | _ -> have_d := false)
      | None, _ -> ())
    layers
  in
  if !have_d && !d_lat > 0. then
    Bench_util.row
      "  %-12s | norm-lat TENET %6.2f  data-centric %6.2f  (-%5.1f%%) | \
       peak SBW %7.1f vs %7.1f (-%5.1f%%)\n"
      name (!t_lat /. !ideal) (!d_lat /. !ideal)
      (Bench_util.pct !t_lat !d_lat)
      !t_sbw !d_sbw (Bench_util.pct !t_sbw !d_sbw)
  else
    Bench_util.row
      "  %-12s | norm-lat TENET %6.2f | peak SBW %7.1f | data-centric: n/a \
       (unsupported operators, as in the paper)\n"
      name (!t_lat /. !ideal) !t_sbw

let run () =
  Bench_util.section
    "Figure 7: large-scale applications (normalized latency & bandwidth)";
  let spec = Arch.Repository.tpu_like ~bandwidth:16 () in
  (* representative layer subsets keep the sweep under a minute each *)
  let subset n l =
    List.filteri (fun i _ -> i < n) l
  in
  show_app "GoogLeNet" (subset 3 W.googlenet) spec;
  show_app "MobileNet" (subset 4 W.mobilenet) spec;
  (* MAESTRO's frontend does not support MTTKRP / MMc operators *)
  show_app ~maestro_supported:false "ALS" [ W.als () ] spec;
  show_app ~maestro_supported:false "Transformer"
    (subset 2 (W.transformer ())) spec;
  Printf.printf
    "(paper: 74%% / 22%% latency reduction and 63%% / 54%% bandwidth \
     reduction for GoogLeNet / MobileNet; MAESTRO cannot model ALS and \
     Transformer)\n"

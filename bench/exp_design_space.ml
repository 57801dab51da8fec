(* Section IV-A: design-space sizes of the two notations, and the pruned
   Section VI-B conv exploration. *)

module Ir = Tenet.Ir
module Arch = Tenet.Arch
module Dse = Tenet.Dse.Dse
module M = Tenet.Model
module Obs = Tenet.Obs
module Json = Tenet.Obs.Json

let run () =
  Bench_util.section "Section IV-A: dataflow design-space size";
  Bench_util.row "%-10s %-22s %-22s %s\n" "kernel" "MAESTRO n!*C(n,2)"
    "TENET 2^(n^2)" "ratio";
  List.iter
    (fun (name, n) ->
      let ma = Dse.maestro_design_space_size ~n_loops:n in
      let te = Dse.tenet_design_space_size ~n_loops:n in
      Bench_util.row "%-10s %-22d %-22d %dx\n" name ma te (te / ma))
    [ ("GEMM", 3); ("MTTKRP", 4); ("2D-CONV", 6) ];
  Printf.printf
    "(paper: GEMM 18 vs 512, a 28x larger space for the relation-centric \
     notation)\n"

(* One pruned search on a capacity-declaring spec, its stats and the
   capacity tier's verdict counts as summary extras under [prefix].  The
   verdicts are the deltas of the [analysis.feasible_*] counters, which
   stay 0 unless telemetry is on (TENET_BENCH_TIMINGS). *)
let capacity_rerun ~phase ~prefix ~label spec op cands =
  let verdicts =
    List.map
      (fun v -> (v, Obs.counter ("analysis.feasible_" ^ v)))
      [ "bounded"; "counted"; "resisted" ]
  in
  let before = List.map (fun (_, c) -> Obs.value c) verdicts in
  let result, dt =
    Bench_util.phase phase (fun () ->
        Dse.search ~mode:Dse.Pruned ~objective:Dse.Latency spec op cands)
  in
  let st = result.Dse.stats in
  let counts =
    List.map2 (fun (v, c) b -> (v, Obs.value c - b)) verdicts before
  in
  Printf.printf
    "capacity run, %s: %d generated, %d capacity-pruned, %d evaluated in \
     %.2fs; tier verdicts: %s\n"
    label st.Dse.generated st.Dse.pruned_capacity st.Dse.evaluated dt
    (String.concat ", "
       (List.map (fun (v, n) -> Printf.sprintf "%d %s" n v) counts));
  let extra name v =
    Bench_util.summary_extra (prefix ^ "_" ^ name) (Json.Int v)
  in
  extra "generated" st.Dse.generated;
  extra "pruned_precheck" st.Dse.pruned_precheck;
  extra "pruned_capacity" st.Dse.pruned_capacity;
  extra "evaluated" st.Dse.evaluated;
  List.iter (fun (v, n) -> extra ("feasible_" ^ v) n) counts

let run_dse () =
  Bench_util.section
    "Section VI-B: pruned conv design-space exploration";
  let op = Ir.Kernels.conv2d ~nk:8 ~nc:8 ~nox:8 ~noy:8 ~nrx:3 ~nry:3 in
  let spec = Arch.Repository.tpu_like ~bandwidth:16 () in
  let cands =
    Dse.candidates_2d ~permute_outer:true op ~p:8 @ Dse.candidates_1d op ~p:64
  in
  Printf.printf
    "candidates: %d (movement pairs x inner dim x skew x outer orders; \
     paper's prune: 25920)\n"
    (List.length cands);
  (* One amortized sweep over three problem sizes: the first is the
     op's own extents and runs the full pruned search (so the stats
     gates below see exactly the single-size numbers); the other two
     re-score its top candidates through per-candidate metric templates
     instead of fresh evaluations. *)
  let sweep_sizes =
    [
      [ ("ox", 8); ("oy", 8) ];
      [ ("ox", 16); ("oy", 16) ];
      [ ("ox", 24); ("oy", 16) ];
    ]
  in
  let results, dt =
    Bench_util.phase "dse.search_sizes" (fun () ->
        Dse.search_sizes ~mode:Dse.Pruned ~objective:Dse.Latency spec op cands
          ~sizes:sweep_sizes)
  in
  let result = match results with (_, r) :: _ -> r | [] -> assert false in
  let outcomes = result.Dse.outcomes in
  let st = result.Dse.stats in
  let reuse =
    List.fold_left
      (fun a (_, r) -> a + r.Dse.stats.Dse.template_reuse)
      0 results
  in
  Printf.printf "explored %d valid dataflows in %.1fs (paper: <1 hour)\n"
    (List.length outcomes) dt;
  Printf.printf
    "search: %d generated, %d full evaluations (pruned: %d precheck, %d \
     symmetry, %d dominated)\n"
    st.Dse.generated st.Dse.evaluated st.Dse.pruned_precheck
    st.Dse.pruned_symmetry st.Dse.pruned_dominated;
  Printf.printf
    "size sweep: %d sizes, %d candidate-size scores answered by template \
     instantiation\n"
    (List.length sweep_sizes) reuse;
  Bench_util.summary_extra "dse_template_reuse" (Json.Int reuse);
  Bench_util.summary_extra "dse_generated" (Json.Int st.Dse.generated);
  Bench_util.summary_extra "dse_evaluated" (Json.Int st.Dse.evaluated);
  Bench_util.summary_extra "dse_pruned_precheck"
    (Json.Int st.Dse.pruned_precheck);
  Bench_util.summary_extra "dse_pruned_symmetry"
    (Json.Int st.Dse.pruned_symmetry);
  Bench_util.summary_extra "dse_pruned_capacity"
    (Json.Int st.Dse.pruned_capacity);
  Bench_util.summary_extra "dse_pruned_dominated"
    (Json.Int st.Dse.pruned_dominated);
  (match outcomes with
  | o :: _ ->
      Bench_util.summary_extra "dse_best_dataflow"
        (Json.String o.Dse.dataflow.Tenet.Dataflow.Dataflow.name);
      Bench_util.summary_extra "dse_best_latency"
        (Json.Float o.Dse.metrics.M.Metrics.latency)
  | [] -> ());
  Printf.printf "top 5 by latency:\n";
  List.iteri
    (fun i o ->
      if i < 5 then
        Printf.printf "  %-34s lat=%8.0f util=%.2f  [%s]\n"
          o.Dse.dataflow.Tenet.Dataflow.Dataflow.name
          o.Dse.metrics.M.Metrics.latency
          o.Dse.metrics.M.Metrics.avg_utilization
          (if o.Dse.expressible then "data-centric" else "TENET-only"))
    outcomes;
  (* Capacity-declaring reruns of a gemm search.  A 256-byte scratchpad
     makes the 8x8 mappings provably infeasible, so the TN014 tier (not
     the evaluator) rejects them before any scoring; generous capacities
     prune nothing, and the tier's count-free bounds settle every
     candidate without a count. *)
  let gemm = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:16 in
  let base = Arch.Repository.tpu_like ~bandwidth:16 () in
  let gcands = Dse.candidates_2d gemm ~p:8 in
  let snug = Arch.Spec.with_capacities ~scratchpad_bytes:256 base in
  capacity_rerun ~phase:"dse.search_capacity" ~prefix:"dse_cap"
    ~label:"gemm, scratchpad 256 B" snug gemm gcands;
  capacity_rerun ~phase:"dse.search_generous" ~prefix:"dse_gen"
    ~label:"gemm, generous capacities"
    (Arch.Spec.with_capacities ~scratchpad_bytes:(1 lsl 22) ~pe_regs:64
       ~link_width:8 ~pe_ports:8 ~max_fanout:64 ~dram_bw:4096 base)
    gemm gcands;
  (* The dse_mapper pointwise conv on the same scratchpad: the per-stamp
     bound settles most of its candidates without a count. *)
  let pw = Ir.Kernels.conv2d ~nk:8 ~nc:4 ~nox:4 ~noy:4 ~nrx:1 ~nry:1 in
  capacity_rerun ~phase:"dse.search_pointwise" ~prefix:"dse_pw"
    ~label:"pointwise conv, scratchpad 256 B" snug pw
    (Dse.candidates_2d pw ~p:8)

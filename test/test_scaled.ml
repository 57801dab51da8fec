(* Tests for Model.Scaled: the multilinear extrapolation must agree with
   exact analysis wherever exact analysis is feasible. *)

module Ir = Tenet.Ir
module Arch = Tenet.Arch
module Df = Tenet.Dataflow
module M = Tenet.Model

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let summary (m : M.Metrics.t) =
  ( m.M.Metrics.n_instances,
    m.M.Metrics.n_timestamps,
    List.map
      (fun tm ->
        let v = tm.M.Metrics.volumes in
        ( tm.M.Metrics.tensor,
          v.M.Metrics.total,
          v.M.Metrics.temporal_reuse,
          v.M.Metrics.spatial_reuse,
          tm.M.Metrics.footprint ))
      m.M.Metrics.per_tensor )

let test_gemm_exactness () =
  let spec = Arch.Repository.tpu_like () in
  let op = Ir.Kernels.gemm ~ni:64 ~nj:64 ~nk:48 in
  let df = Df.Zoo.gemm_ij_p_ijk_t () in
  let exact = M.Concrete.analyze spec op df in
  let scaled = M.Scaled.analyze spec op df ~scale_dims:[ "i"; "j"; "k" ] in
  Alcotest.(check bool) "summaries equal" true (summary exact = summary scaled)

let test_conv_exactness () =
  let spec = Arch.Repository.tpu_like () in
  let op = Ir.Kernels.conv2d ~nk:16 ~nc:16 ~nox:20 ~noy:12 ~nrx:3 ~nry:3 in
  let df = Df.Zoo.conv_nvdla () in
  let exact = M.Concrete.analyze spec op df in
  let scaled = M.Scaled.analyze spec op df ~scale_dims:[ "c"; "ox"; "oy" ] in
  Alcotest.(check bool) "summaries equal" true (summary exact = summary scaled)

let test_mttkrp_exactness () =
  let spec = Arch.Repository.tpu_like () in
  let op = Ir.Kernels.mttkrp ~ni:24 ~nj:16 ~nk:16 ~nl:16 in
  let df = Df.Zoo.mttkrp_ij_p_ijl_t () in
  let exact = M.Concrete.analyze spec op df in
  let scaled = M.Scaled.analyze spec op df ~scale_dims:[ "k"; "l" ] in
  Alcotest.(check bool) "summaries equal" true (summary exact = summary scaled)

let test_degenerate_dims_fall_back () =
  (* a dim already at its sample size: scaled must equal exact *)
  let spec = Arch.Repository.tpu_like () in
  let op = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:8 in
  let df = Df.Zoo.gemm_ij_p_ijk_t () in
  let exact = M.Concrete.analyze spec op df in
  let scaled = M.Scaled.analyze spec op df ~scale_dims:[ "k" ] in
  Alcotest.(check bool) "summaries equal" true (summary exact = summary scaled)

let test_huge_runs_fast () =
  let spec = Arch.Repository.tpu_like () in
  let op = Ir.Kernels.mttkrp ~ni:48_000 ~nj:32 ~nk:1_800 ~nl:200 in
  let df = Df.Zoo.mttkrp_ij_p_ijl_t () in
  let m = M.Scaled.analyze spec op df ~scale_dims:[ "i"; "k"; "l" ] in
  check_int "instances" (48_000 * 32 * 1_800 * 200) m.M.Metrics.n_instances;
  check_bool "positive latency" true (m.M.Metrics.latency > 0.);
  check_bool "utilization sane" true
    (m.M.Metrics.avg_utilization > 0. && m.M.Metrics.avg_utilization <= 1.0)

(* How often [f] bumped the scaled.interpolated and scaled.template_exact
   counters. *)
let scaled_counts f =
  let interpolated = Tenet.Obs.counter "scaled.interpolated"
  and exact = Tenet.Obs.counter "scaled.template_exact" in
  Tenet.Obs.enable ();
  let i0 = Tenet.Obs.value interpolated and e0 = Tenet.Obs.value exact in
  Fun.protect ~finally:Tenet.Obs.disable (fun () -> ignore (f ()));
  (Tenet.Obs.value interpolated - i0, Tenet.Obs.value exact - e0)

let test_interpolated_counter () =
  let spec = Arch.Repository.tpu_like () in
  let df = Df.Zoo.gemm_ij_p_ijk_t () in
  (* every sample span is empty: a plain concrete analysis *)
  let i, _ =
    scaled_counts (fun () ->
        M.Scaled.analyze spec (Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:8) df
          ~scale_dims:[ "k" ])
  in
  check_int "degenerate: not interpolated" 0 i;
  (* a size the template refuses: the corners are interpolated, once *)
  let i, e =
    scaled_counts (fun () ->
        M.Scaled.analyze spec (Ir.Kernels.gemm ~ni:24 ~nj:48 ~nk:24) df
          ~scale_dims:[ "i"; "j"; "k" ])
  in
  check_int "24x48x24: template refused" 0 e;
  check_int "24x48x24: interpolated" 1 i

(* The interpolant's whole record, floats included, pinned byte for
   byte under fig7's explicit sampling (half of [default_samples]): the
   other cases compare integer summaries only. *)
let test_interpolant_pin () =
  let spec = Arch.Repository.tpu_like ~bandwidth:16 () in
  let op = Ir.Kernels.gemm ~ni:40 ~nj:72 ~nk:56 in
  let dims = [ "i"; "j"; "k" ] in
  let pin ~skew expected =
    (* [Dse.candidates_2d]'s (ik-P | j-T) pair, as fig7 screens it *)
    let df =
      Tenet.Isl.Aff.(
        Df.Dataflow.make
          ~name:(if skew then "(ik-P | j-T+skew)" else "(ik-P | j-T)")
          ~space:[ Mod (Var "i", 8); Mod (Var "k", 8) ]
          ~time:
            [
              Fdiv (Var "i", 8);
              Fdiv (Var "k", 8);
              (if skew then
                 Add (Add (Mod (Var "i", 8), Mod (Var "k", 8)), Var "j")
               else Var "j");
            ])
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
        dims
    in
    let m = M.Scaled.analyze ~spec_dims spec op df ~scale_dims:dims in
    check_string df.Df.Dataflow.name expected
      (Tenet.Obs.Json.to_string (M.Metrics.to_json m))
  in
  (* compute-bound, and the first corner's max utilization *)
  pin ~skew:true
    {|{"dataflow":"(ik-P | j-T+skew)","n_instances":161280,"n_timestamps":3010,"pe_size":64,"avg_utilization":0.83720930232558144,"max_utilization":0.4375,"delay_compute":3010,"delay_read":1400.0,"delay_write":1260.0,"latency":3010.0,"latency_stamped":3010.0,"ibw":93.767441860465112,"sbw":14.13953488372093,"energy":1464960.0,"per_tensor":[{"tensor":"A","direction":"in","footprint":2240,"volumes":{"total":161280,"temporal_reuse":159040,"spatial_reuse":0,"unique":2240}},{"tensor":"B","direction":"in","footprint":4032,"volumes":{"total":161280,"temporal_reuse":0,"spatial_reuse":141120,"unique":20160}},{"tensor":"Y","direction":"out","footprint":2880,"volumes":{"total":161280,"temporal_reuse":0,"spatial_reuse":141120,"unique":20160}}]}|};
  (* bandwidth-bound: latency = delay_read + delay_write *)
  pin ~skew:false
    {|{"dataflow":"(ik-P | j-T)","n_instances":161280,"n_timestamps":2520,"pe_size":64,"avg_utilization":1.0,"max_utilization":1.0,"delay_compute":2520,"delay_read":10220.0,"delay_write":10080.0,"latency":20300.0,"latency_stamped":20300.0,"ibw":0.0,"sbw":128.88888888888889,"energy":2593920.0,"per_tensor":[{"tensor":"A","direction":"in","footprint":2240,"volumes":{"total":161280,"temporal_reuse":159040,"spatial_reuse":0,"unique":2240}},{"tensor":"B","direction":"in","footprint":4032,"volumes":{"total":161280,"temporal_reuse":0,"spatial_reuse":0,"unique":161280}},{"tensor":"Y","direction":"out","footprint":2880,"volumes":{"total":161280,"temporal_reuse":0,"spatial_reuse":0,"unique":161280}}]}|}

let prop_scaled_matches_exact_gemm =
  QCheck.Test.make ~name:"scaled = exact across gemm sizes" ~count:8
    QCheck.(triple (int_range 3 6) (int_range 3 6) (int_range 3 6))
    (fun (ti, tj, tk) ->
      let spec = Arch.Repository.tpu_like () in
      let op = Ir.Kernels.gemm ~ni:(8 * ti) ~nj:(8 * tj) ~nk:(8 * tk) in
      let df = Df.Zoo.gemm_ij_p_ijk_t () in
      let exact = M.Concrete.analyze spec op df in
      let scaled = M.Scaled.analyze spec op df ~scale_dims:[ "i"; "j"; "k" ] in
      summary exact = summary scaled)

let () =
  Alcotest.run "scaled"
    [
      ( "exactness",
        [
          Alcotest.test_case "gemm" `Quick test_gemm_exactness;
          Alcotest.test_case "conv" `Quick test_conv_exactness;
          Alcotest.test_case "mttkrp" `Quick test_mttkrp_exactness;
          Alcotest.test_case "degenerate" `Quick test_degenerate_dims_fall_back;
          Alcotest.test_case "huge layer" `Quick test_huge_runs_fast;
          Alcotest.test_case "interpolated counter" `Quick
            test_interpolated_counter;
          Alcotest.test_case "interpolant pin" `Quick test_interpolant_pin;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_scaled_matches_exact_gemm ]
      );
    ]

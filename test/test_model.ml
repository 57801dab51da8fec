(* Tests for tenet.model: volume metrics, latency/bandwidth/utilization,
   and the equivalence of the relational and concrete engines. *)

module Isl = Tenet.Isl
module Ir = Tenet.Ir
module Arch = Tenet.Arch
module Df = Tenet.Dataflow
module M = Tenet.Model

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fig3_df =
  Df.Dataflow.make ~name:"fig3"
    ~space:Isl.Aff.[ Var "i"; Var "j" ]
    ~time:Isl.Aff.[ Add (Add (Var "i", Var "j"), Var "k") ]

let spec2 = Arch.Repository.tpu_like ~n:2 ()

(* ------------------------------------------------------------------ *)
(* Paper worked example end to end.                                    *)
(* ------------------------------------------------------------------ *)

let test_fig3_metrics () =
  let op = Ir.Kernels.gemm ~ni:2 ~nj:2 ~nk:4 in
  let m = M.Concrete.analyze spec2 op fig3_df in
  let a = (M.Metrics.find_tensor m "A").M.Metrics.volumes in
  check_int "A total" 16 a.M.Metrics.total;
  (* full-domain unique of A = its footprint: every element enters once *)
  check_int "A unique" 8 a.M.Metrics.unique;
  check_int "A temporal" 0 a.M.Metrics.temporal_reuse;
  check_int "A spatial" 8 a.M.Metrics.spatial_reuse;
  let y = (M.Metrics.find_tensor m "Y").M.Metrics.volumes in
  check_int "Y temporal (stationary)" 12 y.M.Metrics.temporal_reuse;
  check_int "Y unique" 4 y.M.Metrics.unique;
  (* timestamps: i+j+k ranges over 0..5 *)
  check_int "timestamps" 6 m.M.Metrics.n_timestamps;
  check_int "compute delay" 6 m.M.Metrics.delay_compute

let test_volume_identities () =
  let op = Ir.Kernels.gemm ~ni:8 ~nj:8 ~nk:8 in
  let spec = Arch.Repository.tpu_like ~n:4 () in
  let df = Df.Zoo.gemm_ij_p_ijk_t ~p:4 () in
  let m = M.Concrete.analyze spec op df in
  List.iter
    (fun tm ->
      let v = tm.M.Metrics.volumes in
      check_int
        (tm.M.Metrics.tensor ^ ": total = unique + reuse")
        v.M.Metrics.total
        (v.M.Metrics.unique + M.Metrics.reuse v);
      check_bool
        (tm.M.Metrics.tensor ^ ": unique >= footprint")
        true
        (v.M.Metrics.unique >= tm.M.Metrics.footprint))
    m.M.Metrics.per_tensor

let test_utilization () =
  let op = Ir.Kernels.gemm ~ni:8 ~nj:8 ~nk:8 in
  let spec = Arch.Repository.tpu_like ~n:8 () in
  (* one 8x8 pass, skewed: 8+8+8-2 = 22 stamps *)
  let m = M.Concrete.analyze spec op (Df.Zoo.gemm_ij_p_ijk_t ()) in
  check_int "stamps" 22 m.M.Metrics.n_timestamps;
  Alcotest.(check (float 1e-6))
    "avg util" (512. /. (64. *. 22.))
    m.M.Metrics.avg_utilization;
  (* the busiest skewed wavefront covers i+j in an 8-wide window:
     64 - 10 - 6 = 48 active PEs *)
  Alcotest.(check (float 1e-6)) "max util" 0.75 m.M.Metrics.max_utilization

let test_latency_bandwidth_tradeoff () =
  let op = Ir.Kernels.gemm ~ni:32 ~nj:32 ~nk:32 in
  let df = Df.Zoo.gemm_ij_p_ijk_t () in
  let hi = M.Concrete.analyze (Arch.Repository.tpu_like ~bandwidth:256 ()) op df in
  let lo = M.Concrete.analyze (Arch.Repository.tpu_like ~bandwidth:2 ()) op df in
  check_bool "low bandwidth hurts" true
    (lo.M.Metrics.latency > hi.M.Metrics.latency);
  (* at high bandwidth, compute bound: latency = stamps *)
  Alcotest.(check (float 1e-6))
    "compute bound" (float_of_int hi.M.Metrics.n_timestamps)
    hi.M.Metrics.latency

let test_energy_monotone_in_reuse () =
  (* stationary output dataflow should cost less energy than one that
     spills the output every step (compare two dataflows on same op) *)
  let op = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:16 in
  let spec = Arch.Repository.tpu_like () in
  let good = M.Concrete.analyze spec op (Df.Zoo.gemm_ij_p_ijk_t ()) in
  check_bool "energy positive" true (good.M.Metrics.energy > 0.);
  (* sanity: energy at least MAC cost *)
  check_bool "energy >= macs" true
    (good.M.Metrics.energy >= float_of_int good.M.Metrics.n_instances)

let test_invalid_dataflow_raises () =
  let op = Ir.Kernels.gemm ~ni:32 ~nj:8 ~nk:8 in
  check_bool "out of array" true
    (match M.Concrete.analyze spec2 op fig3_df with
    | _ -> false
    | exception M.Concrete.Invalid_dataflow _ -> true)

let test_multicast_leader_fetches () =
  (* broadcast row: with an output-channel-parallel dataflow, B[k] is per
     PE but A is shared across the row at the same cycle *)
  let op = Ir.Kernels.gemm ~ni:4 ~nj:4 ~nk:4 in
  let spec =
    Arch.Spec.make ~pe:(Arch.Pe_array.d1 4)
      ~topology:(Arch.Interconnect.Multicast 3) ~bandwidth:64 ()
  in
  let df =
    (* PE = j; time = (i, k): A[i,k] identical across all PEs at each
       stamp -> 3 of 4 copies come over the wire *)
    Df.Dataflow.make ~name:"(J-P | I,K-T)"
      ~space:[ Isl.Aff.Var "j" ]
      ~time:Isl.Aff.[ Var "i"; Var "k" ]
  in
  let m = M.Concrete.analyze spec op df in
  let a = (M.Metrics.find_tensor m "A").M.Metrics.volumes in
  check_int "A total" 64 a.M.Metrics.total;
  check_int "A spatial (3 of 4 per stamp)" 48 a.M.Metrics.spatial_reuse;
  check_int "A unique (leader only)" 16 a.M.Metrics.unique


let test_huge_op_guarded () =
  (* the concrete engine refuses to enumerate oversized domains and
     points at scaled analysis instead *)
  let op = Ir.Kernels.gemm ~ni:9_999_999 ~nj:100 ~nk:100 in
  check_bool "guard raises" true
    (match M.Concrete.analyze spec2 op (Df.Zoo.gemm_ij_p_ijk_t ~p:2 ()) with
    | _ -> false
    | exception M.Concrete.Invalid_dataflow msg ->
        String.length msg > 0)

(* ------------------------------------------------------------------ *)
(* Engine equivalence: relational vs concrete on random dataflows.     *)
(* ------------------------------------------------------------------ *)

(* The whole record, byte for byte.  The relational engine has no
   stamped latency (it reports the overlap latency there), so that one
   field comes from the concrete side. *)
let same_record (mr : M.Metrics.t) (mc : M.Metrics.t) =
  let bytes m = Tenet.Obs.Json.to_string (M.Metrics.to_json m) in
  let stamped = mc.M.Metrics.latency_stamped in
  String.equal (bytes { mr with M.Metrics.latency_stamped = stamped }) (bytes mc)

(* random small GEMM dataflows over a 2x2 array *)
let arb_small_dataflow =
  let gen =
    QCheck.Gen.(
      let* skew = bool in
      let* swap = bool in
      let* topo = int_range 0 2 in
      return (skew, swap, topo))
  in
  QCheck.make gen

let spec_of_topo = function
  | 0 -> Arch.Interconnect.Systolic_2d
  | 1 -> Arch.Interconnect.Mesh
  | _ -> Arch.Interconnect.Broadcast_row

let prop_engines_agree =
  QCheck.Test.make ~name:"relational = concrete" ~count:12 arb_small_dataflow
    (fun (skew, swap, topo) ->
      let op = Ir.Kernels.gemm ~ni:4 ~nj:4 ~nk:3 in
      let da, db = if swap then ("j", "i") else ("i", "j") in
      let inner =
        if skew then
          Isl.Aff.(
            Add (Add (Mod (Var da, 2), Mod (Var db, 2)), Var "k"))
        else Isl.Aff.Var "k"
      in
      let df =
        Df.Dataflow.make ~name:"rand"
          ~space:Isl.Aff.[ Mod (Var da, 2); Mod (Var db, 2) ]
          ~time:
            Isl.Aff.[ Fdiv (Var da, 2); Fdiv (Var db, 2); inner ]
      in
      let spec =
        Arch.Spec.make ~pe:(Arch.Pe_array.d2 2 2) ~topology:(spec_of_topo topo)
          ~bandwidth:16 ()
      in
      let mr = M.Model.analyze spec op df in
      let mc = M.Concrete.analyze spec op df in
      same_record mr mc)

let prop_engines_agree_lex =
  QCheck.Test.make ~name:"relational = concrete (lex adjacency)" ~count:8
    arb_small_dataflow (fun (skew, swap, topo) ->
      let op = Ir.Kernels.gemm ~ni:4 ~nj:4 ~nk:2 in
      let da, db = if swap then ("j", "i") else ("i", "j") in
      let inner =
        if skew then
          Isl.Aff.(Add (Add (Mod (Var da, 2), Mod (Var db, 2)), Var "k"))
        else Isl.Aff.Var "k"
      in
      let df =
        Df.Dataflow.make ~name:"rand"
          ~space:Isl.Aff.[ Mod (Var da, 2); Mod (Var db, 2) ]
          ~time:Isl.Aff.[ Fdiv (Var da, 2); Fdiv (Var db, 2); inner ]
      in
      let spec =
        Arch.Spec.make ~pe:(Arch.Pe_array.d2 2 2) ~topology:(spec_of_topo topo)
          ~bandwidth:16 ()
      in
      let mr = M.Model.analyze ~adjacency:`Lex_step spec op df in
      let mc = M.Concrete.analyze ~adjacency:`Lex_step spec op df in
      same_record mr mc)

(* The same check over the Table III zoo: every dataflow once, on the
   first repository architecture of its rank. *)
let test_zoo_engines_agree () =
  let module C = Tenet.Analysis.Checker in
  let seen = Hashtbl.create 32 in
  List.iter
    (fun (s : C.subject) ->
      let key = s.C.s_kernel ^ "/" ^ s.C.s_df.Df.Dataflow.name in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        check_bool
          (Printf.sprintf "%s on %s" key s.C.s_arch)
          true
          (same_record
             (M.Model.analyze s.C.s_spec s.C.s_op s.C.s_df)
             (M.Concrete.analyze s.C.s_spec s.C.s_op s.C.s_df))
      end)
    (C.zoo_subjects ())

let prop_total_eq_instances_times_accesses =
  QCheck.Test.make ~name:"total(F) = instances for single-access tensors"
    ~count:20
    QCheck.(triple (int_range 2 6) (int_range 2 6) (int_range 2 6))
    (fun (ni, nj, nk) ->
      let op = Ir.Kernels.gemm ~ni ~nj ~nk in
      let df =
        Df.Dataflow.make ~name:"seq"
          ~space:Isl.Aff.[ Mod (Var "i", 2); Mod (Var "j", 2) ]
          ~time:Isl.Aff.[ Fdiv (Var "i", 2); Fdiv (Var "j", 2); Var "k" ]
      in
      let m = M.Concrete.analyze spec2 op df in
      List.for_all
        (fun tm ->
          tm.M.Metrics.volumes.M.Metrics.total = Ir.Tensor_op.n_instances op)
        m.M.Metrics.per_tensor)

let () =
  Alcotest.run "model"
    [
      ( "volumes",
        [
          Alcotest.test_case "fig3 end to end" `Quick test_fig3_metrics;
          Alcotest.test_case "volume identities" `Quick test_volume_identities;
          Alcotest.test_case "multicast leader" `Quick
            test_multicast_leader_fetches;
        ] );
      ( "latency/util",
        [
          Alcotest.test_case "utilization" `Quick test_utilization;
          Alcotest.test_case "bandwidth tradeoff" `Quick
            test_latency_bandwidth_tradeoff;
          Alcotest.test_case "energy" `Quick test_energy_monotone_in_reuse;
          Alcotest.test_case "invalid dataflow" `Quick
            test_invalid_dataflow_raises;
          Alcotest.test_case "oversized domain guarded" `Quick
            test_huge_op_guarded;
        ] );
      ( "engine equivalence",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_engines_agree;
            prop_engines_agree_lex;
            prop_total_eq_instances_times_accesses;
          ]
        @ [
            Alcotest.test_case "zoo whole record" `Quick
              test_zoo_engines_agree;
          ]
      );
    ]

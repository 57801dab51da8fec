(* Figure 8: modeling runtime per dataflow — MAESTRO's polynomials vs
   TENET's relation counting — measured with bechamel, plus TENET's
   sensitivity to interconnect complexity and (in)sensitivity to PE-array
   size. *)

module Ir = Tenet.Ir
module Arch = Tenet.Arch
module Df = Tenet.Dataflow
module M = Tenet.Model
module Ma = Tenet.Maestro
open Bechamel
open Toolkit

let conv_small = Ir.Kernels.conv2d ~nk:8 ~nc:8 ~nox:8 ~noy:8 ~nrx:3 ~nry:3
let gemm_small = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:16
let gemm_tiny = Ir.Kernels.gemm ~ni:4 ~nj:4 ~nk:4

let tests () =
  let maestro =
    Test.make ~name:"MAESTRO polynomial (conv)"
      (Staged.stage (fun () ->
           ignore
             (Ma.Analytical.analyze
                (Arch.Repository.eyeriss_like ())
                conv_small
                (Ma.Maestro_zoo.conv_k_p_ox_oy_t conv_small))))
  in
  let tenet_concrete =
    Test.make ~name:"TENET concrete (conv 8^2x8^2x3^2)"
      (Staged.stage (fun () ->
           ignore
             (M.Concrete.analyze
                (Arch.Repository.tpu_like ())
                conv_small (Df.Zoo.conv_nvdla ()))))
  in
  let tenet_gemm =
    Test.make ~name:"TENET concrete (gemm 16^3)"
      (Staged.stage (fun () ->
           ignore
             (M.Concrete.analyze
                (Arch.Repository.tpu_like ())
                gemm_small (Df.Zoo.gemm_ij_p_ijk_t ()))))
  in
  let tenet_relational =
    Test.make ~name:"TENET relational/ISL (gemm 4^3)"
      (Staged.stage (fun () ->
           ignore
             (M.Model.analyze
                (Arch.Repository.tpu_like ~n:2 ())
                gemm_tiny
                (Df.Zoo.gemm_ij_p_ijk_t ~p:2 ()))))
  in
  let by_topology topo name =
    Test.make ~name:("TENET concrete gemm 16^3, " ^ name)
      (Staged.stage (fun () ->
           ignore
             (M.Concrete.analyze
                (Arch.Spec.make ~pe:(Arch.Pe_array.d2 8 8) ~topology:topo
                   ~bandwidth:64 ())
                gemm_small (Df.Zoo.gemm_ij_p_ijk_t ()))))
  in
  let by_pes n =
    Test.make ~name:(Printf.sprintf "TENET concrete gemm 16^3, %dx%d PEs" n n)
      (Staged.stage (fun () ->
           ignore
             (M.Concrete.analyze
                (Arch.Repository.tpu_like ~n ())
                gemm_small
                (Df.Zoo.gemm_ij_p_ijk_t ~p:n ()))))
  in
  [
    maestro;
    tenet_concrete;
    tenet_gemm;
    tenet_relational;
    by_topology Arch.Interconnect.Systolic_2d "systolic";
    by_topology Arch.Interconnect.Mesh "mesh";
    by_topology Arch.Interconnect.Row_col_broadcast "row+col bcast";
    by_pes 4;
    by_pes 8;
  ]

let run () =
  Bench_util.section "Figure 8: modeling runtime, TENET vs MAESTRO";
  let clock = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ clock ] test in
      let res = Analyze.all ols clock raw in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              Printf.printf "  %-48s %14.1f ns/run (%10.3f ms)\n" name est
                (est /. 1e6)
          | _ -> Printf.printf "  %-48s (no estimate)\n" name)
        res)
    (tests ());
  Printf.printf
    "(paper: ~10^-2 s for MAESTRO vs ~10^-1 s for TENET per dataflow; \
     runtime grows with interconnect complexity, not with PE count)\n"

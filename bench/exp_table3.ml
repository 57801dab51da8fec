(* Table III: the twenty dataflows in relation-centric notation, their
   data-centric expressibility, and validity on their natural PE arrays. *)

module Ir = Tenet.Ir
module Arch = Tenet.Arch
module Df = Tenet.Dataflow
module Dse = Tenet.Dse.Dse
module M = Tenet.Model
module Obs = Tenet.Obs
module Json = Tenet.Obs.Json

let entry pe op (df : Df.Dataflow.t) =
  let ok =
    match Df.Dataflow.first_violation op df pe with
    | None -> "valid"
    | Some msg -> "INVALID: " ^ msg
  in
  Printf.printf "  %-26s %-60s %-14s %s\n" df.Df.Dataflow.name
    (Df.Dataflow.to_string df |> fun s ->
     if String.length s > 60 then String.sub s 0 57 ^ "..." else s)
    (if Dse.data_centric_expressible df then "data-centric" else "TENET-only")
    ok

let run () =
  Bench_util.section "Table III: dataflow notations for the five kernels";
  Bench_util.subsection "GEMM (64x64x64)";
  let gemm = Ir.Kernels.gemm ~ni:64 ~nj:64 ~nk:64 in
  List.iter (entry (Arch.Pe_array.d2 8 8) gemm) (Df.Zoo.gemm_2d ());
  List.iter (entry (Arch.Pe_array.d1 64) gemm) (Df.Zoo.gemm_1d ());
  Bench_util.subsection "2D-CONV (16x16x14x14, r=3)";
  let conv = Ir.Kernels.conv2d ~nk:16 ~nc:16 ~nox:14 ~noy:14 ~nrx:3 ~nry:3 in
  List.iter
    (entry (Arch.Pe_array.d2 8 8) conv)
    [
      Df.Zoo.conv_kc_p_oy_kcox_t ();
      Df.Zoo.conv_kox_p_oy_koxc_t ();
      Df.Zoo.conv_kc_p_c_kox_t ();
      Df.Zoo.conv_shidiannao ();
      Df.Zoo.conv_nvdla ();
    ];
  List.iter
    (entry (Arch.Pe_array.d1 64) conv)
    [ Df.Zoo.conv_k_p_ox_oy_t (); Df.Zoo.conv_c_p_oy_ox_t () ];
  let conv13 = Ir.Kernels.conv2d ~nk:16 ~nc:16 ~nox:13 ~noy:13 ~nrx:3 ~nry:3 in
  List.iter (entry (Arch.Pe_array.d2 12 14) conv13) [ Df.Zoo.conv_eyeriss_rs () ];
  Bench_util.subsection "MTTKRP (16^4)";
  let mt = Ir.Kernels.mttkrp ~ni:16 ~nj:16 ~nk:16 ~nl:16 in
  List.iter (entry (Arch.Pe_array.d2 8 8) mt) (Df.Zoo.mttkrp_all ());
  Bench_util.subsection "Jacobi-2D (66x66)";
  let jac = Ir.Kernels.jacobi2d ~n:66 in
  List.iter (entry (Arch.Pe_array.d1 64) jac) [ Df.Zoo.jacobi_i_p_ij_t () ];
  List.iter (entry (Arch.Pe_array.d2 8 8) jac) [ Df.Zoo.jacobi_ij_p_ij_t () ];
  Bench_util.subsection "MMc (16^4)";
  let mmc = Ir.Kernels.mmc ~ni:16 ~nj:16 ~nk:16 ~nl:16 in
  List.iter (entry (Arch.Pe_array.d2 8 8) mmc) (Df.Zoo.mmc_all ());
  (* Parametric re-instantiation: compile the table's GEMM workload into
     a metric template once, then answer a size never analyzed before by
     pure substitution.  scripts/ci.sh gates the second size on zero
     enumerated points — the O(1) re-analysis claim, made checkable. *)
  Bench_util.subsection "parametric re-instantiation (GEMM 64^3 template)";
  let spec = Arch.Repository.tpu_like () in
  let df = Df.Zoo.gemm_ij_p_ijk_t () in
  let tpl, compile_s =
    Bench_util.phase "template_compile" (fun () ->
        let t = M.Template.compile spec gemm df ~params:[ "i"; "j"; "k" ] in
        ignore
          (M.Template.instantiate t
             ~sizes:[ ("i", 64); ("j", 64); ("k", 64) ]);
        t)
  in
  let c_points = Obs.counter "count.points_enumerated" in
  let before = Obs.value c_points in
  let m2, reinst_s =
    Bench_util.phase "template_reinstantiate" (fun () ->
        M.Template.instantiate tpl ~sizes:[ ("i", 96); ("j", 80); ("k", 112) ])
  in
  let delta = Obs.value c_points - before in
  Printf.printf
    "compile+pin %.3fs; 96x80x112 in %.6fs (lat=%.0f, %d points enumerated)\n"
    compile_s reinst_s m2.M.Metrics.latency delta;
  Bench_util.summary_extra "table3_reinstantiation_points" (Json.Int delta);
  Bench_util.summary_extra "table3_reinstantiate_s" (Json.Float reinst_s)

(* Tests for the cycle-level simulator: agreement with the analytical
   model where the model's assumptions hold, and realistic divergence
   where they do not. *)

module Ir = Tenet.Ir
module Arch = Tenet.Arch
module Df = Tenet.Dataflow
module M = Tenet.Model
module Sim = Tenet.Sim
module An = Tenet.Analysis

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_compute_bound_agreement () =
  (* ample bandwidth: observed cycles ~ model compute delay (one extra
     drain step is allowed) *)
  let spec = Arch.Repository.tpu_like ~bandwidth:1024 () in
  let op = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:16 in
  let df = Df.Zoo.gemm_ij_p_ijk_t () in
  let m = M.Concrete.analyze spec op df in
  let s = Sim.Simulator.run spec op df in
  check_bool "within one drain step" true
    (abs (s.Sim.Simulator.cycles - m.M.Metrics.delay_compute) <= 1);
  check_int "no stalls" 0 s.Sim.Simulator.stalled_cycles

let test_traffic_matches_unique_volume () =
  (* the simulator's fetch counts must equal the model's UniqueVolume:
     both count first-touch transfers under the same reuse channels *)
  let spec = Arch.Repository.tpu_like ~bandwidth:1024 () in
  let op = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:16 in
  let df = Df.Zoo.gemm_ij_p_ijk_t () in
  let m = M.Concrete.analyze spec op df in
  let s = Sim.Simulator.run spec op df in
  List.iter
    (fun (tr : Sim.Simulator.tensor_traffic) ->
      let v = (M.Metrics.find_tensor m tr.Sim.Simulator.tensor).M.Metrics.volumes in
      match tr.Sim.Simulator.direction with
      | Ir.Tensor_op.Read ->
          check_int
            ("reads " ^ tr.Sim.Simulator.tensor)
            v.M.Metrics.unique tr.Sim.Simulator.fetches
      | Ir.Tensor_op.Write ->
          check_int
            ("writes " ^ tr.Sim.Simulator.tensor)
            v.M.Metrics.unique
            (tr.Sim.Simulator.writebacks + tr.Sim.Simulator.fetches))
    s.Sim.Simulator.traffic

let test_bandwidth_stalls () =
  let op = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:16 in
  let df = Df.Zoo.gemm_ij_p_ijk_t () in
  let wide = Sim.Simulator.run (Arch.Repository.tpu_like ~bandwidth:256 ()) op df in
  let narrow = Sim.Simulator.run (Arch.Repository.tpu_like ~bandwidth:2 ()) op df in
  check_bool "narrow slower" true
    (narrow.Sim.Simulator.cycles > wide.Sim.Simulator.cycles);
  check_bool "stalls appear" true (narrow.Sim.Simulator.stalled_cycles > 0);
  check_bool "utilization drops" true
    (narrow.Sim.Simulator.utilization < wide.Sim.Simulator.utilization)

let test_busy_cycles () =
  let spec = Arch.Repository.tpu_like () in
  let op = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:16 in
  let s = Sim.Simulator.run spec op (Df.Zoo.gemm_ij_p_ijk_t ()) in
  check_int "busy = instances" (16 * 16 * 16) s.Sim.Simulator.busy_pe_cycles

let test_stationary_output_written_once () =
  let spec = Arch.Repository.tpu_like ~bandwidth:1024 () in
  let op = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:16 in
  let s = Sim.Simulator.run spec op (Df.Zoo.gemm_ij_p_ijk_t ()) in
  let y =
    List.find
      (fun t -> String.equal t.Sim.Simulator.tensor "Y")
      s.Sim.Simulator.traffic
  in
  check_int "each output written once" 256 y.Sim.Simulator.writebacks;
  check_int "never reloaded" 0 y.Sim.Simulator.fetches

let test_reloaded_partial_sums () =
  (* a dataflow that revisits outputs: (K-P | I,J-T) on a 1D array makes
     each PE hold a k-slice; Y[i,j] revisited per k tile -> reloads *)
  let spec = Arch.Repository.systolic_1d ~n:8 ~bandwidth:1024 () in
  let op = Ir.Kernels.gemm ~ni:4 ~nj:4 ~nk:16 in
  let df = Df.Zoo.gemm_k_p_ij_t ~p:8 () in
  let s = Sim.Simulator.run spec op df in
  let y =
    List.find
      (fun t -> String.equal t.Sim.Simulator.tensor "Y")
      s.Sim.Simulator.traffic
  in
  check_bool "partial sums move" true (y.Sim.Simulator.writebacks > 16)

let test_mesh_vs_systolic_traffic () =
  (* richer interconnect can only reduce scratchpad fetches *)
  let op = Ir.Kernels.conv2d ~nk:8 ~nc:8 ~nox:8 ~noy:8 ~nrx:3 ~nry:3 in
  let df = Df.Zoo.conv_nvdla () in
  let fetches spec =
    let s = Sim.Simulator.run spec op df in
    List.fold_left
      (fun acc t -> acc + t.Sim.Simulator.fetches)
      0 s.Sim.Simulator.traffic
  in
  let sys = fetches (Arch.Repository.tpu_like ~bandwidth:1024 ()) in
  let mesh = fetches (Arch.Repository.mesh_array ~bandwidth:1024 ()) in
  check_bool "mesh <= systolic fetches" true (mesh <= sys)


let test_windowed_traffic_parity () =
  (* the simulator's per-PE register window implements exactly the
     concrete model's lex-window temporal channel: input fetch counts
     match the model's UniqueVolume at every window size.  (Output
     parity needs per-PE-unique outputs — the simulator deduplicates
     writebacks of replicated copies within a stamp while the model
     counts per PE — so it is checked on the GEMM dataflow below.) *)
  let op = Ir.Kernels.conv2d ~nk:4 ~nc:4 ~nox:5 ~noy:5 ~nrx:3 ~nry:3 in
  let spec =
    Arch.Spec.make ~pe:(Arch.Pe_array.d2 4 4)
      ~topology:Arch.Interconnect.Systolic_2d ~bandwidth:4096 ()
  in
  let df = Df.Zoo.conv_nvdla ~p:4 () in
  List.iter
    (fun window ->
      let m = M.Concrete.analyze ~adjacency:`Lex_step ~window spec op df in
      let s = Sim.Simulator.run ~window spec op df in
      List.iter
        (fun (tr : Sim.Simulator.tensor_traffic) ->
          let v =
            (M.Metrics.find_tensor m tr.Sim.Simulator.tensor).M.Metrics.volumes
          in
          match tr.Sim.Simulator.direction with
          | Ir.Tensor_op.Read ->
              check_int
                (Printf.sprintf "w=%d reads %s" window tr.Sim.Simulator.tensor)
                v.M.Metrics.unique tr.Sim.Simulator.fetches
          | Ir.Tensor_op.Write -> ())
        s.Sim.Simulator.traffic)
    [ 1; 2; 5; 15 ];
  (* output parity on an output-stationary GEMM (Y unique per PE) *)
  let gop = Ir.Kernels.gemm ~ni:8 ~nj:8 ~nk:8 in
  let gspec =
    Arch.Spec.make ~pe:(Arch.Pe_array.d2 4 4)
      ~topology:Arch.Interconnect.Systolic_2d ~bandwidth:4096 ()
  in
  let gdf = Df.Zoo.gemm_ij_p_ijk_t ~p:4 () in
  List.iter
    (fun window ->
      let m = M.Concrete.analyze ~adjacency:`Lex_step ~window gspec gop gdf in
      let s = Sim.Simulator.run ~window gspec gop gdf in
      let y =
        List.find
          (fun t -> String.equal t.Sim.Simulator.tensor "Y")
          s.Sim.Simulator.traffic
      in
      let v = (M.Metrics.find_tensor m "Y").M.Metrics.volumes in
      check_int
        (Printf.sprintf "w=%d writes Y" window)
        v.M.Metrics.unique
        (y.Sim.Simulator.writebacks + y.Sim.Simulator.fetches))
    [ 1; 3 ]

(* Invalid dataflows are rejected before the walk, with the texts the
   analytical path uses: never an out-of-bounds index, and never a
   result from PEs aliased by a too-short space stamp. *)
let test_rejects_invalid () =
  let gemm ni nj nk = Ir.Kernels.gemm ~ni ~nj ~nk in
  let rejects what arch op space time want =
    let spec = Arch.Repository.find arch in
    let dims = Ir.Tensor_op.iter_names op in
    let df =
      Df.Dataflow.make ~name:"t"
        ~space:(Tenet.Isl.Parser.exprs ~dims space)
        ~time:(Tenet.Isl.Parser.exprs ~dims time)
    in
    (match Sim.Simulator.run spec op df with
    | _ -> Alcotest.failf "%s: simulated" what
    | exception M.Concrete.Invalid_dataflow msg ->
        Alcotest.(check string) what want msg);
    (* the rank and containment texts are first_violation's *)
    match Df.Dataflow.space_violation op df spec.Arch.Spec.pe with
    | Some msg ->
        Alcotest.(check (option string))
          (what ^ " = first_violation") (Some msg)
          (Df.Dataflow.first_violation op df spec.Arch.Spec.pe)
    | None -> ()
  in
  rejects "1D on a 2D array" "tpu-8x8-systolic" (gemm 16 16 16) "i%8"
    "i/8,j,k" "t: space-stamp rank 1 vs PE array rank 2";
  rejects "outside the array" "tpu-8x8-systolic" (gemm 16 8 8) "i%16,j%8"
    "i/16,j/8,k" "t: space dim 0 spans [0, 15] outside [0, 8)";
  rejects "2D on a 1D array" "systolic-64x1" (gemm 16 16 16) "i%8,j%8"
    "i/8,j/8,k" "t: space-stamp rank 2 vs PE array rank 1";
  rejects "non-injective" "tpu-8x8-systolic" (gemm 8 8 8) "i%8,j%8" "j"
    "t: two instances share a spacetime-stamp"

(* Time and element codes past the int range are refused with the
   concrete engine's texts, never wrapped: a wrapped time code merges
   stamps (the strided mapping is the unstrided one, 65 cycles), and a
   wrapped element space sizes a table negatively. *)
let test_rejects_wide_codes () =
  let module A = Tenet.Isl.Aff in
  let spec = Arch.Repository.find "tpu-8x8-systolic" in
  let gemm = Ir.Kernels.gemm ~ni:4 ~nj:4 ~nk:4 in
  let df name time =
    Df.Dataflow.make ~name ~space:[ A.var "i"; A.var "j" ] ~time
  in
  let stride e = A.Mul (A.Int 2147483648, e) in
  let rejects what op df want =
    match Sim.Simulator.run spec op df with
    | _ -> Alcotest.failf "%s: simulated" what
    | exception M.Concrete.Invalid_dataflow msg ->
        Alcotest.(check string) what want msg
  in
  rejects "wide time" gemm
    (df "wide" (List.map stride [ A.var "k"; A.var "i"; A.var "j" ]))
    "wide: time-stamp space of 6442450945 x 6442450945 x 6442450945 codes \
     is past the int range";
  let plain = df "plain" [ A.var "k"; A.var "i"; A.var "j" ] in
  check_int "unstrided cycles" 65
    (Sim.Simulator.run spec gemm plain).Sim.Simulator.cycles;
  let wide x y = A.Add (stride (A.var x), A.var y) in
  let acc tensor subscripts direction =
    { Ir.Tensor_op.tensor; subscripts; direction }
  in
  let wide_y =
    Ir.Tensor_op.make
      ~iters:[ ("i", 0, 3); ("j", 0, 3); ("k", 0, 3) ]
      ~accesses:
        [
          acc "Y" [ wide "i" "j"; wide "j" "i" ] Ir.Tensor_op.Write;
          acc "A" [ A.var "i"; A.var "k" ] Ir.Tensor_op.Read;
          acc "B" [ A.var "k"; A.var "j" ] Ir.Tensor_op.Read;
        ]
      ()
  in
  rejects "wide element" wide_y
    (df "plain" [ A.var "k" ])
    "tensor Y: element space of 6442450948 x 6442450948 codes is past the \
     int range"

(* So is an instance count past the int range: 2^30 x 2^30 x 8
   instances used to wrap to 0 and index out of bounds. *)
let test_rejects_wrapping_instances () =
  let spec = Arch.Repository.find "tpu-8x8-systolic" in
  let op = Ir.Kernels.gemm ~ni:1073741824 ~nj:1073741824 ~nk:8 in
  let dims = Ir.Tensor_op.iter_names op in
  let df =
    Df.Dataflow.make ~name:"wrap"
      ~space:(Tenet.Isl.Parser.exprs ~dims "i%8,j%8")
      ~time:(Tenet.Isl.Parser.exprs ~dims "i/8,j/8,k")
  in
  match Sim.Simulator.run spec op df with
  | _ -> Alcotest.fail "simulated"
  | exception M.Concrete.Invalid_dataflow msg ->
      Alcotest.(check string)
        "wrapping instances"
        "instance space of 1073741824 x 1073741824 x 8 codes is past the \
         int range"
        msg

(* The simulator pinned over the zoo.  test/golden/sim_zoo.txt holds one
   line per run, recorded from the simulator before its int-code rewrite:
   every Checker.zoo_subjects (arch, dataflow) pair at small sizes, at
   register windows 1-3 and at the repository and a 1-word bandwidth,
   plus Fig 11's two shapes reduced and a GEMM with element spaces past
   2^20 codes.  Every result field, the four peak probes and the order
   of the access trace must stay byte-identical. *)

type zoo_run = {
  label : string;
  spec : Arch.Spec.t;
  op : Ir.Tensor_op.t;
  df : Df.Dataflow.t;
  window : int;
}

let small_op = function
  | "gemm" -> Ir.Kernels.gemm ~ni:6 ~nj:7 ~nk:8
  | "conv" -> Ir.Kernels.conv2d ~nk:3 ~nc:2 ~nox:4 ~noy:4 ~nrx:3 ~nry:3
  | "mttkrp" -> Ir.Kernels.mttkrp ~ni:6 ~nj:7 ~nk:3 ~nl:4
  | "mmc" -> Ir.Kernels.mmc ~ni:6 ~nj:7 ~nk:3 ~nl:4
  | "jacobi2d" -> Ir.Kernels.jacobi2d ~n:14
  | k -> invalid_arg ("small_op: " ^ k)

let zoo_runs () : zoo_run list =
  let run ~arch ~kernel ~window ~bw spec op df =
    let spec, bw_text =
      match bw with
      | None -> (spec, "default")
      | Some b -> (Arch.Spec.with_bandwidth b spec, string_of_int b)
    in
    {
      label =
        Printf.sprintf "%s %s %s w=%d bw=%s" arch kernel df.Df.Dataflow.name
          window bw_text;
      spec;
      op;
      df;
      window;
    }
  in
  let zoo =
    List.concat_map
      (fun (s : An.Checker.subject) ->
        let op = small_op s.An.Checker.s_kernel in
        List.concat_map
          (fun window ->
            List.map
              (fun bw ->
                run ~arch:s.An.Checker.s_arch ~kernel:s.An.Checker.s_kernel
                  ~window ~bw s.An.Checker.s_spec op s.An.Checker.s_df)
              [ None; Some 1 ])
          [ 1; 2; 3 ])
      (An.Checker.zoo_subjects ())
  in
  (* Fig 11's two shapes, channel- and size-reduced: Eyeriss row
     stationary at window = ox, MAERI's reduction tree at window 1 *)
  let eyeriss =
    Arch.Spec.make ~pe:(Arch.Pe_array.d2 12 14)
      ~topology:Arch.Interconnect.Row_col_broadcast ~bandwidth:64 ()
  in
  let maeri = Arch.Repository.maeri_like ~n:63 ~bandwidth:64 () in
  let conv k c o r =
    Ir.Kernels.conv2d ~nk:k ~nc:c ~nox:o ~noy:o ~nrx:r ~nry:r
  in
  let fig11 =
    List.concat_map
      (fun (k, c, o, r) ->
        let cpack = max 1 (min (12 / r) (min 4 c)) in
        let df = Df.Zoo.conv_eyeriss_rs ~kt:k ~ct:c ~cpack ~r () in
        List.map
          (fun bw ->
            run ~arch:"eyeriss-rs-12x14" ~kernel:"conv" ~window:o ~bw eyeriss
              (conv k c o r) df)
          [ None; Some 1 ])
      [ (4, 3, 5, 3); (3, 2, 6, 5) ]
    @ List.concat_map
        (fun (k, c, o, r) ->
          let df = Df.Zoo.conv_maeri ~cslices:(min 7 c) () in
          List.map
            (fun bw ->
              run ~arch:"maeri-63" ~kernel:"conv" ~window:1 ~bw maeri
                (conv k c o r) df)
            [ None; Some 1 ])
        [ (3, 3, 6, 3); (4, 2, 5, 3) ]
  in
  (* a GEMM whose Y and A subscripts stride by 300,000, which puts both
     element spaces past 2^20 codes *)
  let strided =
    let module A = Tenet.Isl.Aff in
    let strided x y = A.Add (A.Mul (A.Int 300_000, A.var x), A.var y) in
    let acc tensor subscripts direction =
      { Ir.Tensor_op.tensor; subscripts; direction }
    in
    Ir.Tensor_op.make
      ~iters:[ ("i", 0, 5); ("j", 0, 6); ("k", 0, 7) ]
      ~accesses:
        [
          acc "Y" [ strided "i" "j" ] Ir.Tensor_op.Write;
          acc "A" [ strided "i" "k" ] Ir.Tensor_op.Read;
          acc "B" [ A.var "k"; A.var "j" ] Ir.Tensor_op.Read;
        ]
      ()
  in
  let wide =
    List.concat_map
      (fun (arch, df) ->
        let spec = Arch.Repository.find arch in
        List.concat_map
          (fun window ->
            List.map
              (fun bw ->
                run ~arch ~kernel:"gemm-strided" ~window ~bw spec strided df)
              [ None; Some 1 ])
          [ 1; 2; 3 ])
      [
        ("tpu-8x8-systolic", Df.Zoo.gemm_ij_p_ijk_t ());
        ("systolic-64x1", Df.Zoo.gemm_k_p_ij_t ~p:4 ());
      ]
  in
  zoo @ fig11 @ wide

(* One golden line: the subject, the result's JSON bytes, the four peak
   probes, and an MD5 of the scratchpad access trace. *)
let zoo_line (z : zoo_run) : string =
  let r = Sim.Simulator.run ~window:z.window z.spec z.op z.df in
  let buf = Buffer.create 4096 in
  let trace tensor element =
    Buffer.add_string buf tensor;
    Array.iter
      (fun v -> Buffer.add_string buf (Printf.sprintf " %d" v))
      element;
    Buffer.add_char buf '\n'
  in
  let traced = Sim.Simulator.run ~window:z.window ~trace z.spec z.op z.df in
  if traced <> r then failwith (z.label ^ ": traced run differs");
  Printf.sprintf "%s | %s | pe=%d chip=%d link=%d fan=%d | trace=%s" z.label
    (Tenet.Obs.Json.to_string (Sim.Simulator.to_json r))
    r.Sim.Simulator.peak_pe_live r.Sim.Simulator.peak_chip_live
    r.Sim.Simulator.peak_link_load r.Sim.Simulator.peak_fanout
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_zoo_golden () =
  let expected =
    In_channel.with_open_text "golden/sim_zoo.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let runs = zoo_runs () in
  check_int "golden runs" (List.length expected) (List.length runs);
  List.iter2
    (fun z want -> Alcotest.(check string) z.label want (zoo_line z))
    runs expected

let () =
  Alcotest.run "sim"
    [
      ( "agreement",
        [
          Alcotest.test_case "compute bound" `Quick test_compute_bound_agreement;
          Alcotest.test_case "traffic = unique volume" `Quick
            test_traffic_matches_unique_volume;
          Alcotest.test_case "busy cycles" `Quick test_busy_cycles;
          Alcotest.test_case "windowed traffic parity" `Quick
            test_windowed_traffic_parity;
        ] );
      ( "behavior",
        [
          Alcotest.test_case "bandwidth stalls" `Quick test_bandwidth_stalls;
          Alcotest.test_case "stationary output" `Quick
            test_stationary_output_written_once;
          Alcotest.test_case "reloaded partial sums" `Quick
            test_reloaded_partial_sums;
          Alcotest.test_case "mesh vs systolic" `Quick
            test_mesh_vs_systolic_traffic;
          Alcotest.test_case "rejects invalid dataflows" `Quick
            test_rejects_invalid;
          Alcotest.test_case "rejects wrapping instance counts" `Quick
            test_rejects_wrapping_instances;
          Alcotest.test_case "rejects wide codes" `Quick
            test_rejects_wide_codes;
        ] );
      ("golden", [ Alcotest.test_case "zoo pin" `Quick test_zoo_golden ]);
    ]

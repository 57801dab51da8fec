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

(* Code spaces past the int range are refused, not wrapped.  Striding
   every time coordinate by 2^31 makes the time-code space 3 x 2^31 + 1
   codes per dim; the same mapping unstrided has 64 stamps.  Striding
   both subscripts of Y does the same to its element space. *)
let wide_time_df =
  Df.Dataflow.make ~name:"wide"
    ~space:Isl.Aff.[ Var "i"; Var "j" ]
    ~time:
      Isl.Aff.
        [
          Mul (Int 2147483648, Var "k");
          Mul (Int 2147483648, Var "i");
          Mul (Int 2147483648, Var "j");
        ]

let wide_element_op () =
  let module A = Isl.Aff in
  let wide x y = A.Add (A.Mul (A.Int 2147483648, A.var x), A.var y) in
  let acc tensor subscripts direction =
    { Ir.Tensor_op.tensor; subscripts; direction }
  in
  Ir.Tensor_op.make
    ~iters:[ ("i", 0, 3); ("j", 0, 3); ("k", 0, 3) ]
    ~accesses:
      [
        acc "Y" [ wide "i" "j"; wide "j" "i" ] Ir.Tensor_op.Write;
        acc "A" [ A.var "i"; A.var "k" ] Ir.Tensor_op.Read;
        acc "B" [ A.var "k"; A.var "j" ] Ir.Tensor_op.Read;
      ]
    ()

let refused what want f =
  match f () with
  | _ -> Alcotest.failf "%s: not refused" what
  | exception M.Concrete.Invalid_dataflow msg ->
      Alcotest.(check string) what want msg

let test_wide_codes_refused () =
  let spec = Arch.Repository.find "tpu-8x8-systolic" in
  let op = Ir.Kernels.gemm ~ni:4 ~nj:4 ~nk:4 in
  let time_msg =
    "wide: time-stamp space of 6442450945 x 6442450945 x 6442450945 codes \
     is past the int range"
  in
  refused "analyze, wide time" time_msg (fun () ->
      M.Concrete.analyze spec op wide_time_df);
  refused "time_profile, wide time" time_msg (fun () ->
      M.Concrete.time_profile (M.Concrete.context spec op) wide_time_df);
  let plain =
    Df.Dataflow.make ~name:"plain"
      ~space:Isl.Aff.[ Var "i"; Var "j" ]
      ~time:Isl.Aff.[ Var "k"; Var "i"; Var "j" ]
  in
  check_int "unstrided stamps" 64
    (M.Concrete.analyze spec op plain).M.Metrics.n_timestamps;
  refused "analyze, wide element"
    "tensor Y: element space of 6442450948 x 6442450948 codes is past the \
     int range"
    (fun () -> M.Concrete.analyze spec (wide_element_op ()) plain)

(* An instance count past the int range is refused too: this conv has
   2^66 instances, which used to wrap to 0, pass the enumeration cap and
   crash the walk with an index error. *)
let test_wrapping_instances_refused () =
  let spec = Arch.Repository.find "tpu-8x8-systolic" in
  let op =
    Ir.Kernels.conv2d ~nk:8192 ~nc:8192 ~nox:8192 ~noy:8192 ~nrx:128 ~nry:128
  in
  let dims = Ir.Tensor_op.iter_names op in
  let df =
    Df.Dataflow.make ~name:"wrap"
      ~space:(Isl.Parser.exprs ~dims "k%8,c%8")
      ~time:(Isl.Parser.exprs ~dims "k/8,c/8,ox,oy,rx,ry")
  in
  let msg =
    "instance space of 8192 x 8192 x 8192 x 8192 x 128 x 128 codes is past \
     the int range"
  in
  refused "analyze, wrapping instances" msg (fun () ->
      M.Concrete.analyze spec op df);
  refused "context, wrapping instances" msg (fun () ->
      M.Concrete.context spec op);
  match Ir.Tensor_op.n_instances op with
  | n -> Alcotest.failf "n_instances wrapped to %d" n
  | exception Invalid_argument _ -> ()

(* A loop whose upper bound lies below its lower bound runs no
   instances, however far below: the count used to multiply the
   negative extent in (-48 instances and a utilization of -0.75 here). *)
let test_reversed_loop_counts_none () =
  let op =
    Ir.Cfront.parse
      "for (i = 5; i < 2; i++) for (j = 0; j < 4; j++) for (k = 0; k < 4; \
       k++) Y[i][j] += A[i][k] * B[k][j];"
  in
  let spec = Arch.Repository.find "systolic-64x1" in
  let df =
    Df.Dataflow.make ~name:"rev" ~space:Isl.Aff.[ Var "j" ]
      ~time:Isl.Aff.[ Var "k" ]
  in
  check_int "Tensor_op.n_instances" 0 (Ir.Tensor_op.n_instances op);
  let m = M.Concrete.analyze spec op df in
  check_int "analyze n_instances" 0 m.M.Metrics.n_instances;
  Alcotest.(check (float 0.)) "utilization" 0. m.M.Metrics.avg_utilization;
  let r = Tenet.Sim.Simulator.run spec op df in
  check_int "simulate n_instances" 0 r.Tenet.Sim.Simulator.n_instances

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

(* ------------------------------------------------------------------ *)
(* The concrete engine pinned over the zoo.                            *)
(* ------------------------------------------------------------------ *)

(* test/golden/concrete_zoo.txt was recorded from the concrete engine
   before its flat-array rewrite.  Each Checker.zoo_subjects pair runs at
   a small and a mid size, as given and with its last time coordinate
   dropped (the " -t" variant, which puts two instances on one stamp), at
   both adjacencies and with validation on and off; one line holds the
   subject's time profile and the MD5 of its six (window 1-3, default or
   1-word bandwidth) outcomes.  An outcome is the Metrics.to_json bytes of
   the one-shot [analyze] or its Invalid_dataflow text; [analyze_in] on a
   fresh context must give the same.  The tail pins one context scoring
   every dataflow of a kernel twice, Fig 11's two shapes, a GEMM whose
   element spaces force the hashed tables, and an empty iteration range.
   On a mismatch the recomputed lines are written to
   concrete_zoo.actual.txt in the test's working directory. *)

let outcome f =
  match f () with
  | m -> Tenet.Obs.Json.to_string (M.Metrics.to_json m)
  | exception M.Concrete.Invalid_dataflow msg -> "invalid dataflow: " ^ msg

let profile_text (p : M.Concrete.profile) =
  Printf.sprintf "ts=%d conflict=%b" p.M.Concrete.p_timestamps
    p.M.Concrete.p_conflict

let adjacency_text = function `Inner_step -> "inner" | `Lex_step -> "lex"

let zoo_op size kernel =
  match (size, kernel) with
  | `Small, "gemm" -> Ir.Kernels.gemm ~ni:6 ~nj:7 ~nk:8
  | `Small, "conv" -> Ir.Kernels.conv2d ~nk:3 ~nc:2 ~nox:4 ~noy:4 ~nrx:3 ~nry:3
  | `Small, "mttkrp" -> Ir.Kernels.mttkrp ~ni:6 ~nj:7 ~nk:3 ~nl:4
  | `Small, "mmc" -> Ir.Kernels.mmc ~ni:6 ~nj:7 ~nk:3 ~nl:4
  | `Small, "jacobi2d" -> Ir.Kernels.jacobi2d ~n:14
  | `Mid, "gemm" -> Ir.Kernels.gemm ~ni:12 ~nj:10 ~nk:9
  | `Mid, "conv" -> Ir.Kernels.conv2d ~nk:4 ~nc:3 ~nox:5 ~noy:5 ~nrx:3 ~nry:3
  | `Mid, "mttkrp" -> Ir.Kernels.mttkrp ~ni:9 ~nj:8 ~nk:4 ~nl:3
  | `Mid, "mmc" -> Ir.Kernels.mmc ~ni:9 ~nj:8 ~nk:4 ~nl:3
  | `Mid, "jacobi2d" -> Ir.Kernels.jacobi2d ~n:26
  | _, k -> invalid_arg ("zoo_op: " ^ k)

let drop_last_time (df : Df.Dataflow.t) =
  let n = List.length df.Df.Dataflow.time in
  Df.Dataflow.make ~name:(df.Df.Dataflow.name ^ " -t")
    ~space:df.Df.Dataflow.space
    ~time:(List.filteri (fun i _ -> i < n - 1) df.Df.Dataflow.time)

(* One run: the one-shot outcome, checked against a fresh context, and
   the context's time profile. *)
let pinned_run ~label ~adjacency ~validate ~window spec op df =
  let one_shot =
    outcome (fun () ->
        M.Concrete.analyze ~adjacency ~validate ~window spec op df)
  in
  let ctx = M.Concrete.context ~adjacency ~validate ~window spec op in
  Alcotest.(check string)
    (label ^ ": analyze_in = analyze")
    one_shot
    (outcome (fun () -> M.Concrete.analyze_in ctx df));
  (one_shot, profile_text (M.Concrete.time_profile ctx df))

let md5 parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

let with_bw bw spec =
  match bw with None -> spec | Some b -> Arch.Spec.with_bandwidth b spec

let concrete_zoo_lines () : string list =
  let grid ~label ~adjacencies spec op df =
    List.concat_map
      (fun adjacency ->
        List.map
          (fun validate ->
            let label =
              Printf.sprintf "%s %s v=%b" label (adjacency_text adjacency)
                validate
            in
            let runs =
              List.concat_map
                (fun window ->
                  List.map
                    (fun bw ->
                      pinned_run ~label ~adjacency ~validate ~window
                        (with_bw bw spec) op df)
                    [ None; Some 1 ])
                [ 1; 2; 3 ]
            in
            Printf.sprintf "%s | %s | %s" label
              (snd (List.hd runs))
              (md5 (List.concat_map (fun (o, p) -> [ o; p ]) runs)))
          [ true; false ])
      adjacencies
  in
  let zoo =
    List.concat_map
      (fun (s : Tenet.Analysis.Checker.subject) ->
        let module C = Tenet.Analysis.Checker in
        List.concat_map
          (fun (size, size_text) ->
            let op = zoo_op size s.C.s_kernel in
            List.concat_map
              (fun df ->
                grid
                  ~label:
                    (Printf.sprintf "%s %s %s %s" s.C.s_arch s.C.s_kernel
                       df.Df.Dataflow.name size_text)
                  ~adjacencies:[ `Inner_step; `Lex_step ]
                  s.C.s_spec op df)
              [ s.C.s_df; drop_last_time s.C.s_df ])
          [ (`Small, "small"); (`Mid, "mid") ])
      (Tenet.Analysis.Checker.zoo_subjects ())
  in
  (* one context per validation mode scoring every 2D GEMM dataflow and
     its -t variant, twice over: the context's scratch must not carry
     anything from one call (or one failed call) to the next *)
  let sequence =
    let spec = Arch.Repository.find "tpu-8x8-systolic" in
    let op = zoo_op `Mid "gemm" in
    let dfs =
      List.concat_map (fun df -> [ df; drop_last_time df ]) (Df.Zoo.gemm_2d ())
    in
    List.concat_map
      (fun validate ->
        let ctx = M.Concrete.context ~validate ~window:2 spec op in
        List.concat_map
          (fun pass ->
            List.map
              (fun df ->
                let label =
                  Printf.sprintf "sequence v=%b pass=%d %s" validate pass
                    df.Df.Dataflow.name
                in
                let got = outcome (fun () -> M.Concrete.analyze_in ctx df) in
                Alcotest.(check string)
                  (label ^ ": = analyze")
                  (outcome (fun () ->
                       M.Concrete.analyze ~validate ~window:2 spec op df))
                  got;
                Printf.sprintf "%s | %s | %s" label
                  (profile_text (M.Concrete.time_profile ctx df))
                  (md5 [ got ]))
              dfs)
          [ 1; 2 ])
      [ true; false ]
  in
  (* Fig 11's two shapes, reduced as in test_sim: Eyeriss row stationary
     on a row/column broadcast (interval 0) at window = ox, MAERI's
     reduction tree at window 1 *)
  let fig11 =
    let eyeriss =
      Arch.Spec.make ~pe:(Arch.Pe_array.d2 12 14)
        ~topology:Arch.Interconnect.Row_col_broadcast ~bandwidth:64 ()
    in
    let maeri = Arch.Repository.maeri_like ~n:63 ~bandwidth:64 () in
    let conv k c o r =
      Ir.Kernels.conv2d ~nk:k ~nc:c ~nox:o ~noy:o ~nrx:r ~nry:r
    in
    let run label spec op window df =
      List.map
        (fun bw ->
          let label =
            Printf.sprintf "%s w=%d bw=%s" label window
              (match bw with None -> "default" | Some b -> string_of_int b)
          in
          let o, p =
            pinned_run ~label ~adjacency:`Lex_step ~validate:true ~window
              (with_bw bw spec) op df
          in
          Printf.sprintf "%s | %s | %s" label p (md5 [ o ]))
        [ None; Some 1 ]
    in
    List.concat_map
      (fun (k, c, o, r) ->
        let cpack = max 1 (min (12 / r) (min 4 c)) in
        run
          (Printf.sprintf "fig11 eyeriss %d,%d,%d,%d" k c o r)
          eyeriss (conv k c o r) o
          (Df.Zoo.conv_eyeriss_rs ~kt:k ~ct:c ~cpack ~r ()))
      [ (4, 3, 5, 3); (3, 2, 6, 5) ]
    @ List.concat_map
        (fun (k, c, o, r) ->
          run
            (Printf.sprintf "fig11 maeri %d,%d,%d,%d" k c o r)
            maeri (conv k c o r) 1
            (Df.Zoo.conv_maeri ~cslices:(min 7 c) ()))
        [ (3, 3, 6, 3); (4, 2, 5, 3) ]
  in
  (* test_sim's GEMM whose Y and A subscripts stride by 300,000: its
     (PE, tensor, element) key space is past the direct tables' cap *)
  let strided =
    let module A = Tenet.Isl.Aff in
    let strided x y = A.Add (A.Mul (A.Int 300_000, A.var x), A.var y) in
    let acc tensor subscripts direction =
      { Ir.Tensor_op.tensor; subscripts; direction }
    in
    let op =
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
    List.concat_map
      (fun (arch, df) ->
        grid
          ~label:(Printf.sprintf "%s gemm-strided %s" arch df.Df.Dataflow.name)
          ~adjacencies:[ `Inner_step; `Lex_step ]
          (Arch.Repository.find arch) op df)
      [
        ("tpu-8x8-systolic", Df.Zoo.gemm_ij_p_ijk_t ());
        ("systolic-64x1", Df.Zoo.gemm_k_p_ij_t ~p:4 ());
      ]
  in
  let empty =
    grid ~label:"tpu-8x8-systolic gemm-empty"
      ~adjacencies:[ `Inner_step ]
      (Arch.Repository.find "tpu-8x8-systolic")
      (Ir.Kernels.gemm ~ni:0 ~nj:7 ~nk:8)
      (Df.Zoo.gemm_ij_p_ijk_t ())
  in
  zoo @ sequence @ fig11 @ strided @ empty

(* The index sort against the counting sort.  Scaling a dataflow's
   outermost time coordinate by 1,000,003 keeps its stamps in the same
   order and, under `Inner_step adjacency, every reuse decision (those
   compare stamps within one outer block); but it spreads the time codes
   too thin for the counting sort when the coordinate takes more than
   one value.  The metrics (and time profile) of each multi-coordinate
   zoo dataflow must not move. *)
let test_index_sort_matches_counting_sort () =
  let fallbacks = Tenet.Obs.counter "concrete.sort_fallbacks" in
  let before = Tenet.Obs.value fallbacks in
  let n = ref 0 in
  Tenet.Obs.enable ();
  Fun.protect ~finally:Tenet.Obs.disable (fun () ->
      List.iter
        (fun (s : Tenet.Analysis.Checker.subject) ->
          let module C = Tenet.Analysis.Checker in
          match s.C.s_df.Df.Dataflow.time with
          | outer :: (_ :: _ as rest) ->
              let df = s.C.s_df in
              let sparse =
                {
                  df with
                  Df.Dataflow.time =
                    Isl.Aff.Mul (Isl.Aff.Int 1_000_003, outer) :: rest;
                }
              in
              let op = zoo_op `Small s.C.s_kernel in
              (* a constant outer coordinate stays one code when scaled *)
              let lo, hi =
                Isl.Aff.interval (Ir.Tensor_op.iter_bounds op) outer
              in
              if hi > lo then incr n;
              let ctx = M.Concrete.context ~window:2 s.C.s_spec op in
              let label = s.C.s_arch ^ " " ^ df.Df.Dataflow.name in
              Alcotest.(check string) label
                (outcome (fun () -> M.Concrete.analyze_in ctx df))
                (outcome (fun () -> M.Concrete.analyze_in ctx sparse));
              Alcotest.(check string) (label ^ " profile")
                (profile_text (M.Concrete.time_profile ctx df))
                (profile_text (M.Concrete.time_profile ctx sparse))
          | _ -> ())
        (Tenet.Analysis.Checker.zoo_subjects ()));
  (* one index sort per spread analysis and per spread profile *)
  check_int "index sorts" (2 * !n) (Tenet.Obs.value fallbacks - before)

(* ------------------------------------------------------------------ *)
(* The per-domain scratch pool.                                        *)
(* ------------------------------------------------------------------ *)

(* Calls of different sizes and kinds share one domain's pool, with a
   major collection (which may reclaim the pool's arrays) between two of
   them.  Each must give what it gives on a fresh domain, whose pool is
   empty: a large analysis; a small one whose outermost time coordinate,
   scaled by 1,000,003, takes the index sort (which must sort only the
   first n cells of the longer pooled order array); one on the hashed
   tables; a simulator run whose trace callback runs an analysis while
   the simulator holds the pool (against the two run apart); and the
   large one again. *)
let test_pool_reuse () =
  let module A = Isl.Aff in
  let module Obs = Tenet.Obs in
  let spec = Arch.Repository.find "tpu-8x8-systolic" in
  let dims = [ "i"; "j"; "k" ] in
  let df ?(scale = 1) name =
    Df.Dataflow.make ~name
      ~space:(Isl.Parser.exprs ~dims "i%8,j%8")
      ~time:
        (A.Mul (A.Int scale, A.Fdiv (A.Var "i", 8))
        :: Isl.Parser.exprs ~dims "j/8,k")
  in
  let small = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:8 in
  let large () =
    outcome (fun () ->
        M.Concrete.analyze spec (Ir.Kernels.gemm ~ni:64 ~nj:64 ~nk:64)
          (df "large"))
  in
  let sparse () =
    outcome (fun () ->
        M.Concrete.analyze ~window:2 ~adjacency:`Lex_step spec small
          (df ~scale:1_000_003 "sparse"))
  in
  let hashed () =
    outcome (fun () ->
        M.Concrete.analyze ~validate:false ~adjacency:`Lex_step spec small
          (df "hashed"))
  in
  (* the simulator with a trace callback that runs a smaller analysis,
     which fits in the arrays the simulator holds, against the two run
     apart *)
  let inner () =
    outcome (fun () ->
        M.Concrete.analyze spec (Ir.Kernels.gemm ~ni:8 ~nj:8 ~nk:6)
          (Df.Dataflow.make ~name:"inner"
             ~space:(Isl.Parser.exprs ~dims "i,j")
             ~time:(Isl.Parser.exprs ~dims "k")))
  in
  let simulate ~nested () =
    let ran = ref "" in
    let trace _ _ = if nested && !ran = "" then ran := inner () in
    let r = Tenet.Sim.Simulator.run ~window:2 ~trace spec small (df "sim") in
    Printf.sprintf "%s pe=%d chip=%d link=%d fan=%d | %s"
      (Tenet.Sim.Simulator.to_string r)
      r.Tenet.Sim.Simulator.peak_pe_live r.Tenet.Sim.Simulator.peak_chip_live
      r.Tenet.Sim.Simulator.peak_link_load r.Tenet.Sim.Simulator.peak_fanout
      (if nested then !ran else inner ())
  in
  let counted name f =
    let c = Obs.counter name in
    let before = Obs.value c in
    Obs.enable ();
    let r = Fun.protect ~finally:Obs.disable f in
    (r, Obs.value c - before)
  in
  let steps =
    [
      ("large", large, large, None);
      ("index sort", sparse, sparse, Some "concrete.sort_fallbacks");
      ("hashed tables", hashed, hashed, Some "concrete.hashed_walks");
      ("simulator", simulate ~nested:true, simulate ~nested:false, None);
      ("large again", large, large, None);
    ]
  in
  List.iteri
    (fun i (what, f, fresh, counter) ->
      if i = 2 then Gc.full_major ();
      let got =
        match counter with
        | None -> f ()
        | Some name ->
            let got, n = counted name f in
            check_int (what ^ ": " ^ name) 1 n;
            got
      in
      Alcotest.(check string) what (Domain.join (Domain.spawn fresh)) got)
    steps

let test_concrete_zoo_golden () =
  let expected =
    In_channel.with_open_text "golden/concrete_zoo.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let got = concrete_zoo_lines () in
  if got <> expected then
    Out_channel.with_open_text "concrete_zoo.actual.txt" (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) got);
  check_int "golden lines" (List.length expected) (List.length got);
  List.iter2 (fun want l -> Alcotest.(check string) "pinned line" want l)
    expected got

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
          Alcotest.test_case "wide code spaces refused" `Quick
            test_wide_codes_refused;
          Alcotest.test_case "wrapping instance counts refused" `Quick
            test_wrapping_instances_refused;
          Alcotest.test_case "reversed loop counts no instances" `Quick
            test_reversed_loop_counts_none;
          Alcotest.test_case "pool reuse across call sizes" `Quick
            test_pool_reuse;
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
      ( "golden",
        [
          Alcotest.test_case "zoo pin" `Quick test_concrete_zoo_golden;
          Alcotest.test_case "index sort = counting sort" `Quick
            test_index_sort_matches_counting_sort;
        ] );
    ]

(* The twenty dataflows of Table III, parameterized by PE-array width.

   Table III abbreviates multi-dimensional time-stamps to their innermost
   two dimensions "for simplicity"; a valid dataflow must order *all* loop
   instances uniquely per PE, so the iterators missing from the printed
   stamp are restored here as outer time dimensions (keeping the printed
   innermost dims innermost).  This reconstruction is the one documented
   in DESIGN.md.

   Names follow the paper: e.g. [(IJ-P | J,IJK-T)] assigns dims I,J to the
   PE array and uses a time-stamp whose innermost dimension is the skewed
   sum of I, J and K. *)

module Aff = Tenet_isl.Aff

let v = Aff.var
let fl e d = Aff.Fdiv (e, d)
let ( %% ) e d = Aff.Mod (e, d)
let ( ++ ) a b = Aff.Add (a, b)

let df name space time = Dataflow.make ~name ~space ~time

(* ------------------------------------------------------------------ *)
(* GEMM: iterators i, j, k; default PE width 8 (2D) or 64 (1D).        *)
(* ------------------------------------------------------------------ *)

(* (IJ-P | J,IJK-T), applied in the TPU: output-stationary systolic with
   skewed feeding. *)
let gemm_ij_p_ijk_t ?(p = 8) () =
  df "(IJ-P | J,IJK-T)"
    [ v "i" %% p; v "j" %% p ]
    [ fl (v "i") p; fl (v "j") p; (v "i" %% p) ++ (v "j" %% p) ++ v "k" ]

(* (KJ-P | K,IJK-T): A-stationary variant; time skews j and k. *)
let gemm_kj_p_ijk_t ?(p = 8) () =
  df "(KJ-P | K,IJK-T)"
    [ v "k" %% p; v "j" %% p ]
    [ fl (v "j") p; fl (v "k") p; v "i" ++ (v "j" %% p) ++ (v "k" %% p) ]

(* (IK-P | K,IJK-T): B-stationary variant, symmetric to the former. *)
let gemm_ik_p_ijk_t ?(p = 8) () =
  df "(IK-P | K,IJK-T)"
    [ v "i" %% p; v "k" %% p ]
    [ fl (v "i") p; fl (v "k") p; v "j" ++ (v "i" %% p) ++ (v "k" %% p) ]

(* (K-P | I,J-T): 1D array over the reduction dim. *)
let gemm_k_p_ij_t ?(p = 64) () =
  df "(K-P | I,J-T)" [ v "k" %% p ] [ fl (v "k") p; v "i"; v "j" ]

(* (J-P | I,K-T): 1D array over the j dim. *)
let gemm_j_p_ik_t ?(p = 64) () =
  df "(J-P | I,K-T)" [ v "j" %% p ] [ fl (v "j") p; v "i"; v "k" ]

let gemm_2d ?(p = 8) () =
  [ gemm_ij_p_ijk_t ~p (); gemm_kj_p_ijk_t ~p (); gemm_ik_p_ijk_t ~p () ]

let gemm_1d ?(p = 64) () = [ gemm_k_p_ij_t ~p (); gemm_j_p_ik_t ~p () ]
let gemm_all ?(p2 = 8) ?(p1 = 64) () = gemm_2d ~p:p2 () @ gemm_1d ~p:p1 ()

(* ------------------------------------------------------------------ *)
(* 2D-CONV: iterators k, c, ox, oy, rx, ry.                            *)
(* ------------------------------------------------------------------ *)

(* (KC-P | O_Y, KCO_X-T): requires affine transformation (skewed feeding
   of k, c, ox); not expressible in data-centric notation. *)
let conv_kc_p_oy_kcox_t ?(p = 8) () =
  df "(KC-P | OY,KCOX-T)"
    [ v "k" %% p; v "c" %% p ]
    [
      v "ry";
      v "rx";
      fl (v "k") p;
      fl (v "c") p;
      v "oy";
      (v "k" %% p) ++ (v "c" %% p) ++ v "ox";
    ]

(* (KO_X-P | O_Y, KO_XC-T): second affine-only dataflow. *)
let conv_kox_p_oy_koxc_t ?(p = 8) () =
  df "(KOX-P | OY,KOXC-T)"
    [ v "k" %% p; v "ox" %% p ]
    [
      v "ry";
      v "rx";
      fl (v "k") p;
      fl (v "ox") p;
      v "oy";
      (v "k" %% p) ++ (v "ox" %% p) ++ v "c";
    ]

(* (KC-P | C, KO_X-T): weight-stationary-ish with skewed k, ox. *)
let conv_kc_p_c_kox_t ?(p = 8) () =
  df "(KC-P | C,KOX-T)"
    [ v "k" %% p; v "c" %% p ]
    [
      v "ry";
      v "rx";
      fl (v "k") p;
      v "oy";
      fl (v "c") p;
      (v "k" %% p) ++ v "ox";
    ]

(* (K-P | O_X, O_Y-T): 1D output-channel parallel (expressible in
   data-centric notation). *)
let conv_k_p_ox_oy_t ?(p = 64) () =
  df "(K-P | OX,OY-T)"
    [ v "k" %% p ]
    [ v "ry"; v "rx"; fl (v "k") p; v "c"; v "ox"; v "oy" ]

(* (C-P | O_Y, O_X-T): 1D input-channel parallel. *)
let conv_c_p_oy_ox_t ?(p = 64) () =
  df "(C-P | OY,OX-T)"
    [ v "c" %% p ]
    [ v "ry"; v "rx"; fl (v "c") p; v "k"; v "oy"; v "ox" ]

(* (R_YO_Y-P | O_Y,O_X-T), motivated by Eyeriss row-stationary: dims ry
   and a slice of c fill one PE-array column; oy fills the row.  The
   paper's printed stamp is T[fl(k/16), fl(c/16), ox]; we restore the
   missing k%16, fl((c%16)/4) and rx iterators, restored so that ox stays
   innermost: the filter row is then stationary across consecutive stamps
   (its O_X temporal reuse) while the output row cycles with period O_X,
   which the PE's row-sized register window captures (Section VI-E's
   3 x 4 = 12 output analysis).
   [cpack] is how many channel slices share a column (Eyeriss CONV3: 4). *)
let conv_eyeriss_rs ?(rows = 12) ?(cols = 14) ?(kt = 16) ?(ct = 16)
    ?(cpack = 4) ?(r = 3) () =
  ignore rows;
  df "(RYOY-P | OY,OX-T)"
    [ v "ry" ++ Aff.Mul (Aff.Int r, v "c" %% cpack); v "oy" %% cols ]
    [
      fl (v "oy") cols;
      fl (v "k") kt;
      fl (v "c") ct;
      v "k" %% kt;
      fl (v "c" %% ct) cpack;
      v "rx";
      v "ox";
    ]

(* (O_YO_X-P | O_Y,O_X-T), motivated by ShiDianNao: output pixels across
   the array, output-stationary in time. *)
let conv_shidiannao ?(p = 8) () =
  df "(OYOX-P | OY,OX-T)"
    [ v "oy" %% p; v "ox" %% p ]
    [ v "k"; v "c"; fl (v "oy") p; fl (v "ox") p; v "ry"; v "rx" ]

(* (KC-P | O_Y,O_X-T), motivated by the NVDLA: channel-parallel without
   skewing. *)
let conv_nvdla ?(p = 8) () =
  df "(KC-P | OY,OX-T)"
    [ v "k" %% p; v "c" %% p ]
    [ v "ry"; v "rx"; fl (v "k") p; fl (v "c") p; v "oy"; v "ox" ]

let conv_all ?(p2 = 8) ?(p1 = 64) () =
  [
    conv_kc_p_oy_kcox_t ~p:p2 ();
    conv_kox_p_oy_koxc_t ~p:p2 ();
    conv_kc_p_c_kox_t ~p:p2 ();
    conv_k_p_ox_oy_t ~p:p1 ();
    conv_c_p_oy_ox_t ~p:p1 ();
    conv_eyeriss_rs ();
    conv_shidiannao ~p:p2 ();
    conv_nvdla ~p:p2 ();
  ]

(* ------------------------------------------------------------------ *)
(* MTTKRP: iterators i, j, k, l.                                       *)
(* ------------------------------------------------------------------ *)

let mttkrp_ij_p_ijl_t ?(p = 8) () =
  df "(IJ-P | J,IJL-T)"
    [ v "i" %% p; v "j" %% p ]
    [ v "k"; fl (v "i") p; fl (v "j") p; (v "i" %% p) ++ (v "j" %% p) ++ v "l" ]

let mttkrp_kj_p_kjl_t ?(p = 8) () =
  df "(KJ-P | J,KJL-T)"
    [ v "k" %% p; v "j" %% p ]
    [ v "i"; fl (v "k") p; fl (v "j") p; (v "k" %% p) ++ (v "j" %% p) ++ v "l" ]

let mttkrp_kl_p_klj_t ?(p = 8) () =
  df "(KL-P | L,KLJ-T)"
    [ v "k" %% p; v "l" %% p ]
    [ v "i"; fl (v "k") p; fl (v "l") p; (v "k" %% p) ++ (v "l" %% p) ++ v "j" ]

let mttkrp_all ?(p = 8) () =
  [ mttkrp_ij_p_ijl_t ~p (); mttkrp_kj_p_kjl_t ~p (); mttkrp_kl_p_klj_t ~p () ]

(* ------------------------------------------------------------------ *)
(* Jacobi-2D: iterators i, j.                                          *)
(* ------------------------------------------------------------------ *)

let jacobi_i_p_ij_t ?(p = 64) () =
  df "(I-P | I,J-T)" [ v "i" %% p ] [ fl (v "i") p; v "j" ]

let jacobi_ij_p_ij_t ?(p = 8) () =
  df "(IJ-P | I,J-T)"
    [ v "i" %% p; v "j" %% p ]
    [ fl (v "i") p; fl (v "j") p ]

let jacobi_all ?(p2 = 8) ?(p1 = 64) () =
  [ jacobi_i_p_ij_t ~p:p1 (); jacobi_ij_p_ij_t ~p:p2 () ]

(* ------------------------------------------------------------------ *)
(* MMc (matrix-multiplication chain): iterators i, j, k, l.            *)
(* ------------------------------------------------------------------ *)

let mmc_ij_p_ijl_t ?(p = 8) () =
  df "(IJ-P | J,IJL-T)"
    [ v "i" %% p; v "j" %% p ]
    [ v "k"; fl (v "i") p; fl (v "j") p; (v "i" %% p) ++ (v "j" %% p) ++ v "l" ]

let mmc_kj_p_kjl_t ?(p = 8) () =
  df "(KJ-P | J,KJL-T)"
    [ v "k" %% p; v "j" %% p ]
    [ v "i"; fl (v "k") p; fl (v "j") p; (v "k" %% p) ++ (v "j" %% p) ++ v "l" ]

let mmc_all ?(p = 8) () = [ mmc_ij_p_ijl_t ~p (); mmc_kj_p_kjl_t ~p () ]

(* MAERI-style reduction-tree dataflow for 2D-CONV (Section VI-E): the
   multipliers (tree leaves) each take one (c-slice, rx, ry) product of a
   dot-product; the tree sums them in the same cycle.  With 3x3 filters,
   7 channel slices x 9 taps fill 63 of 64 leaves. *)
let conv_maeri ?(cslices = 7) ?(taps = 3) () =
  df "(CRXRY-P | OY,OX-T) maeri"
    [
      Aff.Mul (Aff.Int (taps * taps), v "c" %% cslices)
      ++ Aff.Mul (Aff.Int taps, v "rx")
      ++ v "ry";
    ]
    [ fl (v "c") cslices; v "k"; v "oy"; v "ox" ]

(* ------------------------------------------------------------------ *)
(* Kernel-qualified catalog, for name-based lookup from the CLI.       *)
(* ------------------------------------------------------------------ *)

let catalog ?(p2 = 8) ?(p1 = 64) () : (string * Dataflow.t) list =
  let tag kernel dfs =
    List.map
      (fun (d : Dataflow.t) -> (kernel ^ "/" ^ d.Dataflow.name, d))
      dfs
  in
  tag "gemm" (gemm_all ~p2 ~p1 ())
  @ tag "conv" (conv_all ~p2 ~p1 () @ [ conv_maeri () ])
  @ tag "mttkrp" (mttkrp_all ~p:p2 ())
  @ tag "jacobi2d" (jacobi_all ~p2 ~p1 ())
  @ tag "mmc" (mmc_all ~p:p2 ())

let find ?(p2 = 8) ?(p1 = 64) (name : string) : Dataflow.t =
  let cat = catalog ~p2 ~p1 () in
  match List.assoc_opt name cat with
  | Some df -> df
  | None -> (
      (* accept a bare (unqualified) Table III name when unique *)
      match
        List.filter
          (fun (_, d) -> String.equal d.Dataflow.name name)
          cat
      with
      | [ (_, df) ] -> df
      | _ :: _ :: _ ->
          invalid_arg
            (Printf.sprintf
               "Zoo.find: dataflow name %s is ambiguous; qualify it as \
                kernel/name"
               name)
      | [] ->
          invalid_arg
            ("Zoo.find: "
            ^ Tenet_util.Text.unknown ~what:"dataflow" name
                (List.map fst cat)))

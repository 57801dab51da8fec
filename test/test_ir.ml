(* Tests for tenet.ir: kernels, access maps, footprints, C frontend. *)

module Ir = Tenet.Ir
module Isl = Tenet.Isl

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_gemm_shape () =
  let op = Ir.Kernels.gemm ~ni:4 ~nj:5 ~nk:6 in
  check_int "instances" 120 (Ir.Tensor_op.n_instances op);
  check_int "iters" 3 (Ir.Tensor_op.n_iters op);
  Alcotest.(check (list string)) "tensors" [ "A"; "B"; "Y" ]
    (Ir.Tensor_op.tensors op);
  Alcotest.(check (list string)) "inputs" [ "A"; "B" ] (Ir.Tensor_op.inputs op);
  Alcotest.(check (list string)) "outputs" [ "Y" ] (Ir.Tensor_op.outputs op);
  check_int "domain card" 120 (Isl.Set.card (Ir.Tensor_op.domain op));
  check_int "arity A" 2 (Ir.Tensor_op.tensor_arity op "A")

let test_gemm_footprints () =
  let op = Ir.Kernels.gemm ~ni:4 ~nj:5 ~nk:6 in
  check_int "A footprint" 24 (Ir.Tensor_op.footprint op "A");
  check_int "B footprint" 30 (Ir.Tensor_op.footprint op "B");
  check_int "Y footprint" 20 (Ir.Tensor_op.footprint op "Y")

let test_access_map () =
  let op = Ir.Kernels.gemm ~ni:4 ~nj:5 ~nk:6 in
  let a = Ir.Tensor_op.access_map op "A" in
  check_int "A pairs = instances" 120 (Isl.Map.card a);
  check_bool "functional" true (Isl.Map.is_single_valued a);
  match Isl.Map.eval a [| 1; 2; 3 |] with
  | Some f ->
      check_int "A[i,k] fst" 1 f.(0);
      check_int "A[i,k] snd" 3 f.(1)
  | None -> Alcotest.fail "in domain"

let test_conv_shape () =
  let op = Ir.Kernels.conv2d ~nk:4 ~nc:3 ~nox:5 ~noy:5 ~nrx:3 ~nry:3 in
  check_int "instances" (4 * 3 * 5 * 5 * 3 * 3) (Ir.Tensor_op.n_instances op);
  (* input footprint: c x (ox+rx) x (oy+ry) = 3 x 7 x 7 *)
  check_int "A footprint" 147 (Ir.Tensor_op.footprint op "A");
  check_int "B footprint" (4 * 3 * 3 * 3) (Ir.Tensor_op.footprint op "B");
  check_int "Y footprint" (4 * 5 * 5) (Ir.Tensor_op.footprint op "Y")

let test_conv1d_fig1 () =
  (* the 1D-CONV of Figure 1: 4 outputs, 3 taps *)
  let op = Ir.Kernels.conv1d ~no:4 ~nr:3 in
  check_int "instances" 12 (Ir.Tensor_op.n_instances op);
  check_int "A footprint (distinct i+j)" 6 (Ir.Tensor_op.footprint op "A");
  check_int "B footprint" 3 (Ir.Tensor_op.footprint op "B");
  check_int "Y footprint" 4 (Ir.Tensor_op.footprint op "Y")

let test_jacobi () =
  let op = Ir.Kernels.jacobi2d ~n:6 in
  check_int "instances" 16 (Ir.Tensor_op.n_instances op);
  (* 5-point stencil over the interior touches the full 6x6 grid *)
  check_int "A footprint" 32 (Ir.Tensor_op.footprint op "A");
  check_int "accesses of A" 5 (List.length (Ir.Tensor_op.accesses_of op "A"))

let test_mttkrp_mmc () =
  let op = Ir.Kernels.mttkrp ~ni:3 ~nj:4 ~nk:5 ~nl:6 in
  check_int "instances" 360 (Ir.Tensor_op.n_instances op);
  check_int "A footprint" 90 (Ir.Tensor_op.footprint op "A");
  check_int "C footprint" 24 (Ir.Tensor_op.footprint op "C");
  let op2 = Ir.Kernels.mmc ~ni:3 ~nj:4 ~nk:5 ~nl:6 in
  check_int "mmc instances" 360 (Ir.Tensor_op.n_instances op2);
  check_int "mmc B footprint" 30 (Ir.Tensor_op.footprint op2 "B")

let test_dw_pw () =
  let dw = Ir.Kernels.dw_conv2d ~nc:8 ~nox:4 ~noy:4 ~nrx:3 ~nry:3 in
  check_int "dw instances" (8 * 4 * 4 * 9) (Ir.Tensor_op.n_instances dw);
  check_int "dw Y footprint" (8 * 16) (Ir.Tensor_op.footprint dw "Y");
  let pw = Ir.Kernels.pw_conv2d ~nk:8 ~nc:8 ~nox:4 ~noy:4 in
  check_int "pw instances" (64 * 16) (Ir.Tensor_op.n_instances pw);
  (* 1x1 filter: input footprint = c * ox * oy exactly, no halo *)
  check_int "pw A footprint" (8 * 16) (Ir.Tensor_op.footprint pw "A")

let test_make_rejects_unknown_iter () =
  check_bool "unknown iterator" true
    (match
       Ir.Tensor_op.make
         ~iters:[ ("i", 0, 3) ]
         ~accesses:
           [
             {
               Ir.Tensor_op.tensor = "A";
               subscripts = [ Isl.Aff.Var "zz" ];
               direction = Ir.Tensor_op.Read;
             };
           ]
         ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- C frontend --- *)

let gemm_src =
  "for (i = 0; i < 4; i++)\n\
   for (j = 0; j < 5; j++)\n\
   for (k = 0; k < 6; k++)\n\
   Y[i][j] += A[i][k] * B[k][j];"

let test_cfront_gemm () =
  let op = Ir.Cfront.parse gemm_src in
  check_int "instances" 120 (Ir.Tensor_op.n_instances op);
  Alcotest.(check (list string)) "outputs" [ "Y" ] (Ir.Tensor_op.outputs op);
  check_int "A footprint" 24 (Ir.Tensor_op.footprint op "A")

let test_cfront_conv () =
  let src =
    "for (k = 0; k < 4; k++)\n\
     for (c = 0; c < 3; c++)\n\
     for (ox = 0; ox < 5; ox++)\n\
     for (oy = 0; oy < 5; oy++)\n\
     for (rx = 0; rx < 3; rx++)\n\
     for (ry = 0; ry < 3; ry++)\n\
     Y[k][ox][oy] += A[c][ox+rx][oy+ry] * B[k][c][rx][ry];"
  in
  let op = Ir.Cfront.parse src in
  check_int "instances" 2700 (Ir.Tensor_op.n_instances op);
  check_int "A footprint" 147 (Ir.Tensor_op.footprint op "A")

let test_cfront_variants () =
  (* <=, += 1, i = i + 1, comments, int decls, braces *)
  let src =
    "for (int i = 0; i <= 3; i += 1) { // outer\n\
     for (j = 0; j < 2; j = j + 1) {\n\
     Y[i] += A[i + j] * B[j];\n\
     } }"
  in
  let op = Ir.Cfront.parse src in
  check_int "instances" 8 (Ir.Tensor_op.n_instances op);
  check_int "A footprint" 5 (Ir.Tensor_op.footprint op "A")

let test_cfront_jacobi_style () =
  let src =
    "for (i = 1; i <= 4; i++)\n\
     for (j = 1; j <= 4; j++)\n\
     Y[i][j] = (A[i][j] + A[i-1][j] + A[i][j-1] + A[i+1][j] + A[i][j+1]) / 5;"
  in
  let op = Ir.Cfront.parse src in
  check_int "instances" 16 (Ir.Tensor_op.n_instances op);
  check_int "A accesses" 5 (List.length (Ir.Tensor_op.accesses_of op "A"))

let test_cfront_errors () =
  let fails s = match Ir.Cfront.parse s with _ -> false | exception _ -> true in
  check_bool "no loop" true (fails "Y[i] += A[i];");
  check_bool "stride 2" true
    (fails "for (i = 0; i < 4; i += 2) Y[i] += A[i];");
  check_bool "bad test var" true
    (fails "for (i = 0; j < 4; i++) Y[i] += A[i];");
  check_bool "missing semicolon" true
    (fails "for (i = 0; i < 4; i++) Y[i] += A[i]");
  (* a literal past the int range is the client's mistake, not a lexer
     failure *)
  (match
     Ir.Cfront.parse "for (i = 0; i < 99999999999999999999; i++) Y[i] += A[i];"
   with
  | _ -> Alcotest.fail "a loop bound past the int range accepted"
  | exception Ir.Cfront.Syntax_error m ->
      Alcotest.(check string)
        "bound past the int range"
        "integer literal 99999999999999999999 is past the int range" m);
  (* a divisor must be a positive literal, and a subscript quasi-affine:
     the engines would otherwise crash on the divisor, or evaluate a
     subscript the relational engine refuses *)
  let gemm a_subscripts =
    Printf.sprintf
      "for (i = 0; i < 4; i++) for (j = 0; j < 4; j++) for (k = 0; k < 4; \
       k++) Y[i][j] += A%s * B[k][j];"
      a_subscripts
  in
  List.iter
    (fun (subs, msg) ->
      match Ir.Cfront.parse (gemm subs) with
      | _ -> Alcotest.failf "A%s accepted" subs
      | exception Ir.Cfront.Syntax_error m ->
          Alcotest.(check string) ("A" ^ subs) msg m)
    [
      ("[i/0][k]", "division by 0: expected a positive integer literal");
      ("[i/-2][k]", "division by -2: expected a positive integer literal");
    ];
  (match Ir.Cfront.parse (gemm "[i*k][k]") with
  | _ -> Alcotest.fail "A[i*k][k] accepted"
  | exception Isl.Aff.Nonlinear m ->
      Alcotest.(check string) "A[i*k][k]" "i*k" m);
  check_bool "A[i/2][k] accepted" true
    (match Ir.Cfront.parse (gemm "[i/2][k]") with
    | _ -> true
    | exception _ -> false)

(* properties *)
let prop_footprint_le_instances =
  QCheck.Test.make ~name:"footprint <= accesses" ~count:50
    QCheck.(triple (int_range 1 6) (int_range 1 6) (int_range 1 6))
    (fun (ni, nj, nk) ->
      let op = Ir.Kernels.gemm ~ni ~nj ~nk in
      List.for_all
        (fun t -> Ir.Tensor_op.footprint op t <= Ir.Tensor_op.n_instances op)
        (Ir.Tensor_op.tensors op))

let prop_gemm_footprints_formula =
  QCheck.Test.make ~name:"gemm footprints are products" ~count:50
    QCheck.(triple (int_range 1 8) (int_range 1 8) (int_range 1 8))
    (fun (ni, nj, nk) ->
      let op = Ir.Kernels.gemm ~ni ~nj ~nk in
      Ir.Tensor_op.footprint op "A" = ni * nk
      && Ir.Tensor_op.footprint op "B" = nk * nj
      && Ir.Tensor_op.footprint op "Y" = ni * nj)

let () =
  Alcotest.run "ir"
    [
      ( "kernels",
        [
          Alcotest.test_case "gemm shape" `Quick test_gemm_shape;
          Alcotest.test_case "gemm footprints" `Quick test_gemm_footprints;
          Alcotest.test_case "access map" `Quick test_access_map;
          Alcotest.test_case "conv shape" `Quick test_conv_shape;
          Alcotest.test_case "conv1d fig1" `Quick test_conv1d_fig1;
          Alcotest.test_case "jacobi" `Quick test_jacobi;
          Alcotest.test_case "mttkrp/mmc" `Quick test_mttkrp_mmc;
          Alcotest.test_case "dw/pw conv" `Quick test_dw_pw;
          Alcotest.test_case "unknown iterator rejected" `Quick
            test_make_rejects_unknown_iter;
        ] );
      ( "cfront",
        [
          Alcotest.test_case "gemm" `Quick test_cfront_gemm;
          Alcotest.test_case "conv" `Quick test_cfront_conv;
          Alcotest.test_case "syntax variants" `Quick test_cfront_variants;
          Alcotest.test_case "jacobi-style =" `Quick test_cfront_jacobi_style;
          Alcotest.test_case "errors" `Quick test_cfront_errors;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_footprint_le_instances; prop_gemm_footprints_formula ] );
    ]

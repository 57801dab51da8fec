(* Tests for Model.Template: parametric metric templates must reproduce
   the concrete engine byte for byte at every covered size, including
   sizes never analyzed concretely before. *)

module Isl = Tenet.Isl
module Ir = Tenet.Ir
module Arch = Tenet.Arch
module Df = Tenet.Dataflow
module M = Tenet.Model
module Json = Tenet.Obs.Json

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let bytes_of (m : M.Metrics.t) = Json.to_string (M.Metrics.to_json m)

(* ------------------------------------------------------------------ *)
(* Byte-identity against fresh concrete analyses.                      *)
(* ------------------------------------------------------------------ *)

let check_sizes ~msg tpl spec df make_op sizes_list =
  List.iter
    (fun sizes ->
      match M.Template.try_instantiate tpl ~sizes with
      | None ->
          Alcotest.failf "%s: template refused %s" msg
            (String.concat ","
               (List.map (fun (d, e) -> Printf.sprintf "%s=%d" d e) sizes))
      | Some fast ->
          let reference = M.Concrete.analyze spec (make_op sizes) df in
          check_string
            (Printf.sprintf "%s at %s" msg
               (String.concat ","
                  (List.map (fun (d, e) -> Printf.sprintf "%s=%d" d e) sizes)))
            (bytes_of reference) (bytes_of fast))
    sizes_list

let test_gemm_random_sizes () =
  let spec = Arch.Repository.tpu_like () in
  let df = Df.Zoo.gemm_ij_p_ijk_t () in
  let op = Ir.Kernels.gemm ~ni:64 ~nj:64 ~nk:64 in
  let tpl = M.Template.compile spec op df ~params:[ "i"; "j"; "k" ] in
  let rand = Random.State.make [| 0x7e4e7 |] in
  (* stay above the per-class validity floors (residue + up to 3 periods,
     period 8 here): the template refuses smaller sizes by design *)
  let size () = 32 + Random.State.int rand 40 in
  let sizes_list =
    List.init 50 (fun _ -> [ ("i", size ()); ("j", size ()); ("k", size ()) ])
  in
  check_sizes ~msg:"gemm" tpl spec df
    (fun sizes ->
      Ir.Kernels.gemm ~ni:(List.assoc "i" sizes) ~nj:(List.assoc "j" sizes)
        ~nk:(List.assoc "k" sizes))
    sizes_list

let test_conv_random_sizes () =
  let spec = Arch.Repository.tpu_like () in
  let df = Df.Zoo.conv_nvdla () in
  let op = Ir.Kernels.conv2d ~nk:8 ~nc:16 ~nox:14 ~noy:14 ~nrx:3 ~nry:3 in
  let tpl = M.Template.compile spec op df ~params:[ "c"; "ox"; "oy" ] in
  let rand = Random.State.make [| 0xc0c0 |] in
  let c_size () = 32 + Random.State.int rand 16 in
  let o_size () = 16 + Random.State.int rand 8 in
  let sizes_list =
    List.init 6 (fun _ ->
        [ ("c", c_size ()); ("ox", o_size ()); ("oy", o_size ()) ])
  in
  check_sizes ~msg:"conv" tpl spec df
    (fun sizes ->
      Ir.Kernels.conv2d
        ~nk:8
        ~nc:(List.assoc "c" sizes)
        ~nox:(List.assoc "ox" sizes)
        ~noy:(List.assoc "oy" sizes)
        ~nrx:3 ~nry:3)
    sizes_list

(* ------------------------------------------------------------------ *)
(* Table III pin: the template instantiated at the bench's own size    *)
(* must give exactly the numbers the concrete engine has always given. *)
(* ------------------------------------------------------------------ *)

let test_table3_pin () =
  let spec = Arch.Repository.tpu_like () in
  let df = Df.Zoo.gemm_ij_p_ijk_t () in
  let op = Ir.Kernels.gemm ~ni:64 ~nj:64 ~nk:64 in
  let tpl = M.Template.compile spec op df ~params:[ "i"; "j"; "k" ] in
  let m =
    M.Template.instantiate tpl ~sizes:[ ("i", 64); ("j", 64); ("k", 64) ]
  in
  Alcotest.(check int) "instances" (64 * 64 * 64) m.M.Metrics.n_instances;
  let reference = M.Concrete.analyze spec op df in
  check_string "table3 gemm bytes" (bytes_of reference) (bytes_of m);
  (* a never-seen size answered without enumeration: points counters are
     untouched by try_instantiate *)
  let counters () =
    Tenet.Obs.(value (counter "count.points_enumerated"))
  in
  Tenet.Obs.enable ();
  let before = counters () in
  (match
     M.Template.try_instantiate tpl
       ~sizes:[ ("i", 96); ("j", 80); ("k", 112) ]
   with
  | None -> Alcotest.fail "table3 template refused a fresh size"
  | Some m96 ->
      Alcotest.(check int) "instances at 96x80x112" (96 * 80 * 112)
        m96.M.Metrics.n_instances);
  Tenet.Obs.disable ();
  Alcotest.(check int) "zero points enumerated" before (counters ())

(* ------------------------------------------------------------------ *)
(* Closed forms and fallbacks.                                         *)
(* ------------------------------------------------------------------ *)

let test_closed_forms () =
  let spec = Arch.Repository.tpu_like () in
  let df = Df.Zoo.gemm_ij_p_ijk_t () in
  let op = Ir.Kernels.gemm ~ni:64 ~nj:64 ~nk:64 in
  let tpl = M.Template.compile spec op df ~params:[ "i"; "j"; "k" ] in
  let forms =
    M.Template.closed_forms tpl ~sizes:[ ("i", 64); ("j", 64); ("k", 64) ]
  in
  check_bool "has forms" true (forms <> []);
  check_bool "has n_instances form" true
    (List.mem_assoc "n_instances" forms);
  (* n_instances of gemm is exactly i*j*k *)
  let ni = List.assoc "n_instances" forms in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool
    (Printf.sprintf "n_instances form mentions all params (%s)" ni)
    true
    (List.for_all (fun d -> contains ni d) [ "i"; "j"; "k" ]);
  match M.Template.domain_closed_form tpl with
  | None -> Alcotest.fail "domain count should be covered for gemm"
  | Some s -> check_bool "domain form nonempty" true (String.length s > 0)

let test_small_sizes_fall_back () =
  (* extents below residue + 2*period are not covered: try_instantiate
     refuses, instantiate falls back to the concrete engine. *)
  let spec = Arch.Repository.tpu_like () in
  let df = Df.Zoo.gemm_ij_p_ijk_t () in
  let op = Ir.Kernels.gemm ~ni:64 ~nj:64 ~nk:64 in
  let tpl = M.Template.compile spec op df ~params:[ "i"; "j"; "k" ] in
  let sizes = [ ("i", 5); ("j", 5); ("k", 5) ] in
  check_bool "refused" true (M.Template.try_instantiate tpl ~sizes = None);
  let m = M.Template.instantiate tpl ~sizes in
  let reference =
    M.Concrete.analyze spec (Ir.Kernels.gemm ~ni:5 ~nj:5 ~nk:5) df
  in
  check_string "fallback bytes" (bytes_of reference) (bytes_of m)

let test_bad_params_rejected () =
  let spec = Arch.Repository.tpu_like () in
  let df = Df.Zoo.gemm_ij_p_ijk_t () in
  let op = Ir.Kernels.gemm ~ni:64 ~nj:64 ~nk:64 in
  check_bool "unknown iterator raises" true
    (try
       ignore (M.Template.compile spec op df ~params:[ "q" ]);
       false
     with Invalid_argument _ -> true);
  let tpl = M.Template.compile spec op df ~params:[ "i" ] in
  check_bool "unknown size name raises" true
    (try
       ignore (M.Template.try_instantiate tpl ~sizes:[ ("z", 8) ]);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "template"
    [
      ( "byte-identity",
        [
          Alcotest.test_case "gemm 50 random sizes" `Slow
            test_gemm_random_sizes;
          Alcotest.test_case "conv random sizes" `Slow test_conv_random_sizes;
        ] );
      ( "pins",
        [
          Alcotest.test_case "table3 gemm pin" `Quick test_table3_pin;
          Alcotest.test_case "closed forms" `Quick test_closed_forms;
          Alcotest.test_case "small sizes fall back" `Quick
            test_small_sizes_fall_back;
          Alcotest.test_case "bad params rejected" `Quick
            test_bad_params_rejected;
        ] );
    ]

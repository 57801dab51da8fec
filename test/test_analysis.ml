(* Tests for tenet.analysis: the relation-centric model checker.

   Positive: the whole Table III zoo x architecture repository sweep
   checks clean.  Negative: one test per published diagnostic code,
   each asserting the code fires with a concrete witness where the
   checker promises one. *)

module Isl = Tenet.Isl
module Ir = Tenet.Ir
module Arch = Tenet.Arch
module Df = Tenet.Dataflow
module An = Tenet.Analysis
module P = Tenet.Isl.Parser

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let codes ds = List.map (fun d -> d.An.Diagnostic.code) ds

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let found = ref false in
  for i = 0 to nh - nn do
    if String.sub hay i nn = needle then found := true
  done;
  !found

let find_code code ds =
  match
    List.find_opt (fun d -> String.equal d.An.Diagnostic.code code) ds
  with
  | Some d -> d
  | None ->
      Alcotest.fail
        (Printf.sprintf "expected %s, got [%s]" code
           (String.concat "; " (codes ds)))

let witness_of d =
  match d.An.Diagnostic.witness with
  | Some w -> w
  | None -> Alcotest.fail (d.An.Diagnostic.code ^ ": expected a witness")

let d1_spec ?(n = 8) () =
  Arch.Spec.make ~pe:(Arch.Pe_array.d1 n)
    ~topology:Arch.Interconnect.Systolic_1d ~bandwidth:64 ()

let custom_spec ~n ~rel ~interval =
  Arch.Spec.make ~pe:(Arch.Pe_array.d1 n)
    ~topology:(Arch.Interconnect.Custom { rel; interval })
    ~bandwidth:64 ()

let gemm8 () = Ir.Kernels.gemm ~ni:8 ~nj:8 ~nk:8

(* --- the positive sweep ------------------------------------------- *)

let test_sweep_clean () =
  let results = An.Checker.check_subjects (An.Checker.zoo_subjects ()) in
  check_bool "enough subjects" true (List.length results >= 60);
  List.iter
    (fun ((s : An.Checker.subject), ds) ->
      match ds with
      | [] -> ()
      | d :: _ ->
          Alcotest.fail
            (Printf.sprintf "%s / %s / %s: %s" s.An.Checker.s_arch
               s.An.Checker.s_kernel s.An.Checker.s_df.Df.Dataflow.name
               (An.Diagnostic.to_string d)))
    results

(* --- the checker pinned over the zoo -------------------------------- *)

(* Each zoo dataflow with its last time coordinate dropped: stamps then
   collide, so Θ is not injective. *)
let drop_last_time (df : Df.Dataflow.t) : Df.Dataflow.t =
  let n = Df.Dataflow.n_time df in
  Df.Dataflow.make
    ~name:(df.Df.Dataflow.name ^ " -t")
    ~space:df.Df.Dataflow.space
    ~time:(List.filteri (fun i _ -> i < n - 1) df.Df.Dataflow.time)

(* Every zoo subject, then every one with its last time coordinate
   dropped. *)
let zoo_and_dropped () : An.Checker.subject list =
  let zoo = An.Checker.zoo_subjects () in
  zoo
  @ List.map
      (fun (s : An.Checker.subject) ->
        { s with An.Checker.s_df = drop_last_time s.An.Checker.s_df })
      zoo

let report_line ((s : An.Checker.subject), ds) =
  Printf.sprintf "%s | %s | %s | %s" s.An.Checker.s_arch
    s.An.Checker.s_kernel s.An.Checker.s_df.Df.Dataflow.name
    (Tenet.Obs.Json.to_string
       (Tenet.Obs.Json.List (List.map An.Diagnostic.to_json ds)))

(* The reports of [zoo_and_dropped], computed once for the tests that
   read them: the dropped variants' witness searches take most of a
   minute. *)
let zoo_reports = lazy (An.Checker.check_subjects (zoo_and_dropped ()))

(* test/golden/check_zoo.txt was recorded from the checker before its
   per-architecture memo and its injectivity shortcut: one line per
   subject of [zoo_and_dropped] with the full report (code, severity,
   message, witness).  Every dropped variant conflicts, so the golden
   pins the TN003 texts and witnesses of the counting path.  On a
   mismatch the recomputed lines are written to check_zoo.actual.txt in
   the test's working directory. *)
let test_check_zoo_golden () =
  let expected =
    In_channel.with_open_text "golden/check_zoo.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let got = List.map report_line (Lazy.force zoo_reports) in
  if got <> expected then
    Out_channel.with_open_text "check_zoo.actual.txt" (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) got);
  check_int "golden lines" (List.length expected) (List.length got);
  List.iter2 (fun want l -> Alcotest.(check string) "pinned line" want l)
    expected got

(* TN003 is reported exactly where counting finds a conflict: the
   injectivity certificate that settles most subjects without counting
   never hides one. *)
let test_tn003_iff_conflict () =
  let flagged =
    List.filter
      (fun ((s : An.Checker.subject), ds) ->
        let reported = List.mem "TN003" (codes ds) in
        check_bool
          (report_line (s, ds) ^ ": TN003 iff conflict_counts")
          (Df.Dataflow.conflict_counts s.An.Checker.s_op s.An.Checker.s_df
          <> None)
          reported;
        reported)
      (Lazy.force zoo_reports)
  in
  check_int "dropped variants flagged" 75 (List.length flagged)

(* Four domains checking the zoo at once, racing to fill the
   per-architecture memo (cold when this case runs first), each get the
   sequential result.  The domains are joined, not pooled: idle pool
   workers would slow every later collection of this process. *)
let test_parallel_checks () =
  let subjects = An.Checker.zoo_subjects () in
  let reports () =
    List.map
      (fun (s : An.Checker.subject) ->
        report_line
          (s, An.Checker.check s.An.Checker.s_spec s.An.Checker.s_op
                s.An.Checker.s_df))
      subjects
  in
  let par = List.map Domain.join (List.init 4 (fun _ -> Domain.spawn reports)) in
  let seq = reports () in
  List.iteri
    (fun i got ->
      Alcotest.(check (list string))
        (Printf.sprintf "domain %d = sequential" i)
        seq got)
    par

(* --- TN001: rank mismatch ----------------------------------------- *)

let test_tn001_rank () =
  let op = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:16 in
  let df = Df.Zoo.gemm_k_p_ij_t () in
  (* rank-1 dataflow on a rank-2 array *)
  let spec = Arch.Repository.find "tpu-8x8-systolic" in
  let ds = An.Checker.check spec op df in
  ignore (find_code "TN001" ds)

(* --- TN002: out-of-array, with witness ----------------------------- *)

let test_tn002_bounds () =
  let op = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:16 in
  let df = Df.Zoo.gemm_ij_p_ijk_t ~p:9 () in
  let spec = Arch.Repository.find "tpu-8x8-systolic" in
  let ds = An.Checker.check spec op df in
  let d = find_code "TN002" ds in
  let w = witness_of d in
  (* the witness instance really does land outside the 8x8 array *)
  let th = Df.Dataflow.theta op df in
  (match Isl.Map.eval th w.An.Diagnostic.wpoint with
  | Some st -> check_bool "escapes" true (st.(0) > 7 || st.(1) > 7)
  | None -> Alcotest.fail "witness not in domain")

(* --- TN003: PE conflict, with witness pair ------------------------- *)

let test_tn003_conflict () =
  let op = Ir.Kernels.gemm ~ni:4 ~nj:2 ~nk:2 in
  let df =
    Df.Dataflow.make ~name:"conflicting"
      ~space:Isl.Aff.[ Mod (Var "i", 2) ]
      ~time:Isl.Aff.[ Var "j"; Var "k" ]
  in
  let ds = An.Checker.check (d1_spec ~n:2 ()) op df in
  let d = find_code "TN003" ds in
  let w = witness_of d in
  (* the witness is a pair (n, n') of distinct instances sharing a
     stamp *)
  check_int "pair arity" 6 (Array.length w.An.Diagnostic.wpoint);
  let n = Array.sub w.An.Diagnostic.wpoint 0 3 in
  let n' = Array.sub w.An.Diagnostic.wpoint 3 3 in
  check_bool "distinct" true (n <> n');
  let th = Df.Dataflow.theta op df in
  check_bool "same stamp" true (Isl.Map.eval th n = Isl.Map.eval th n')

(* --- TN004: causality, with witness dependence pair ---------------- *)

let scan_op () =
  (* Y[i] = Y[i] + Y[i-1]: a loop-carried RAW chain *)
  Ir.Tensor_op.make ~name:"scan"
    ~iters:[ ("i", 1, 7) ]
    ~accesses:
      Ir.Tensor_op.
        [
          { tensor = "Y"; subscripts = [ Isl.Aff.Var "i" ]; direction = Write };
          {
            tensor = "Y";
            subscripts = [ Isl.Aff.Sub (Isl.Aff.Var "i", Isl.Aff.Int 1) ];
            direction = Read;
          };
        ]
    ()

let test_tn004_causality () =
  let op = scan_op () in
  let spec = d1_spec ~n:1 () in
  (* forward time: causal *)
  let fwd =
    Df.Dataflow.make ~name:"fwd" ~space:[ Isl.Aff.Int 0 ]
      ~time:[ Isl.Aff.Var "i" ]
  in
  check_bool "forward is causal" true
    (not
       (List.exists
          (fun d -> String.equal d.An.Diagnostic.code "TN004")
          (An.Checker.check spec op fwd)));
  (* reversed time: every dependence runs backwards *)
  let rev =
    Df.Dataflow.make ~name:"rev" ~space:[ Isl.Aff.Int 0 ]
      ~time:[ Isl.Aff.Sub (Isl.Aff.Int 8, Isl.Aff.Var "i") ]
  in
  let d = find_code "TN004" (An.Checker.check spec op rev) in
  let w = witness_of d in
  check_int "pair arity" 2 (Array.length w.An.Diagnostic.wpoint);
  (* the witness (i, i') is a real RAW pair: W(i) feeds R(i') with
     i' = i + 1, yet i executes later under reversed time *)
  check_int "raw pair" (w.An.Diagnostic.wpoint.(0) + 1)
    w.An.Diagnostic.wpoint.(1)

(* --- TN005: malformed interconnect --------------------------------- *)

(* The architecture's findings are remembered per (topology, PE dims):
   a malformed-topology case runs twice, the second time on a re-parsed,
   structurally equal relation, and must get the same report. *)
let twice what (run : Isl.Map.t -> An.Diagnostic.t list) (text : string) =
  let first = run (P.map text) in
  Alcotest.(check (list string))
    (what ^ ": same report on a second call")
    (List.map An.Diagnostic.to_string first)
    (List.map An.Diagnostic.to_string (run (P.map text)));
  first

let test_tn005_out_of_array () =
  let ds =
    twice "out of array"
      (fun rel -> An.Checker.check_arch (custom_spec ~n:8 ~rel ~interval:1))
      "{ PE[i] -> PE[j] : 0 <= i < 8 and j = i + 4 }"
  in
  let w = witness_of (find_code "TN005" ds) in
  (* the witness wire endpoint escapes the 8-wide array *)
  check_bool "endpoint escapes" true (w.An.Diagnostic.wpoint.(1) >= 8)

let test_tn005_self_loop () =
  ignore
    (find_code "TN005"
       (twice "self loop"
          (fun rel ->
            An.Checker.check_arch (custom_spec ~n:8 ~rel ~interval:1))
          "{ PE[i] -> PE[j] : 0 <= i < 8 and j = i }"))

let test_tn005_rank () =
  let spec rel =
    Arch.Spec.make ~pe:(Arch.Pe_array.d2 8 8)
      ~topology:(Arch.Interconnect.Custom { rel; interval = 1 })
      ~bandwidth:64 ()
  in
  ignore
    (find_code "TN005"
       (twice "rank"
          (fun rel -> An.Checker.check_arch (spec rel))
          "{ PE[i] -> PE[j] : 0 <= i < 8 and j = i + 1 }"));
  (* only the range has the wrong rank: the full battery must report it
     without indexing the range past its dims *)
  ignore
    (find_code "TN005"
       (twice "range rank"
          (fun rel ->
            An.Checker.check (spec rel) (gemm8 ()) (Df.Zoo.gemm_ij_p_ijk_t ()))
          "{ PE[i, j] -> PE[k] : 0 <= i < 8 and 0 <= j < 8 and k = i }"))

(* The memo's key holds the PE dims, not the topology alone: one
   relation is malformed on 8 PEs and clean on 16, asked alternately. *)
let test_tn005_keyed_by_dims () =
  let text = "{ PE[i] -> PE[j] : 0 <= i < 8 and j = i + 4 }" in
  let op = gemm8 () and df = Df.Zoo.gemm_k_p_ij_t ~p:8 () in
  for round = 1 to 3 do
    let on n = custom_spec ~n ~rel:(P.map text) ~interval:1 in
    let what n = Printf.sprintf "round %d, %d PEs" round n in
    ignore (find_code "TN005" (An.Checker.check_arch (on 8)));
    ignore (find_code "TN005" (An.Checker.check (on 8) op df));
    check_int (what 16 ^ ": check_arch") 0
      (List.length (An.Checker.check_arch (on 16)));
    check_bool (what 16 ^ ": check") false
      (List.mem "TN005" (codes (An.Checker.check (on 16) op df)))
  done

let test_builtin_archs_clean () =
  List.iter
    (fun (name, spec) ->
      match An.Checker.check_arch spec with
      | [] -> ()
      | d :: _ ->
          Alcotest.fail (name ^ ": " ^ An.Diagnostic.to_string d))
    Arch.Repository.all

(* --- TN006: infeasible reuse --------------------------------------- *)

let test_tn006_phantom_reuse () =
  (* One PE, a self-loop "wire" at transfer interval 2, and an input
     whose elements recur with period 2: the volume model would credit
     spatial reuse along the self-loop for every stamp t >= 2, but no
     wire exists. *)
  let op =
    Ir.Tensor_op.make ~name:"periodic"
      ~iters:[ ("i", 0, 7) ]
      ~accesses:
        Ir.Tensor_op.
          [
            {
              tensor = "Y";
              subscripts = [ Isl.Aff.Var "i" ];
              direction = Write;
            };
            {
              tensor = "X";
              subscripts = [ Isl.Aff.Mod (Isl.Aff.Var "i", 2) ];
              direction = Read;
            };
          ]
      ()
  in
  let df =
    Df.Dataflow.make ~name:"seq" ~space:[ Isl.Aff.Int 0 ]
      ~time:[ Isl.Aff.Var "i" ]
  in
  let ds =
    twice "phantom reuse"
      (fun rel -> An.Checker.check (custom_spec ~n:1 ~rel ~interval:2) op df)
      "{ PE[p] -> PE[q] : 0 <= p < 1 and q = p }"
  in
  let d = find_code "TN006" ds in
  ignore (witness_of d);
  (* the self-loop is also structurally malformed *)
  ignore (find_code "TN005" ds)

(* --- TN007 / TN008 / TN009 / TN010: lints -------------------------- *)

let test_tn007_empty_domain () =
  let op =
    Ir.Tensor_op.make ~name:"empty"
      ~iters:[ ("i", 0, -1) ]
      ~accesses:
        Ir.Tensor_op.
          [
            { tensor = "Y"; subscripts = [ Isl.Aff.Var "i" ]; direction = Write };
          ]
      ()
  in
  let df =
    Df.Dataflow.make ~name:"seq" ~space:[ Isl.Aff.Int 0 ]
      ~time:[ Isl.Aff.Var "i" ]
  in
  let d = find_code "TN007" (An.Checker.check (d1_spec ~n:1 ()) op df) in
  check_bool "warning" true (d.An.Diagnostic.severity = An.Diagnostic.Warning)

let test_tn008_unused_iterator () =
  let op = Ir.Kernels.gemm ~ni:8 ~nj:8 ~nk:8 in
  let df =
    Df.Dataflow.make ~name:"no-k"
      ~space:Isl.Aff.[ Var "i" ]
      ~time:Isl.Aff.[ Var "j" ]
  in
  let ds = An.Checker.check (d1_spec ()) op df in
  ignore (find_code "TN008" ds);
  (* collapsing k also produces PE conflicts *)
  ignore (find_code "TN003" ds)

let test_tn009_unknown_iterator () =
  let op = Ir.Kernels.gemm ~ni:8 ~nj:8 ~nk:8 in
  let df =
    Df.Dataflow.make ~name:"typo"
      ~space:Isl.Aff.[ Var "z" ]
      ~time:Isl.Aff.[ Var "j" ]
  in
  let ds = An.Checker.check (d1_spec ()) op df in
  let d = find_code "TN009" ds in
  check_bool "mentions z" true (contains d.An.Diagnostic.message "'z'")

let test_tn010_degenerate () =
  let op = Ir.Kernels.gemm ~ni:8 ~nj:8 ~nk:8 in
  let df =
    Df.Dataflow.make ~name:"idle-rows"
      ~space:Isl.Aff.[ Int 0; Mod (Var "j", 8) ]
      ~time:Isl.Aff.[ Var "i"; Var "k" ]
  in
  let spec = Arch.Repository.find "tpu-8x8-systolic" in
  let ds = An.Checker.check spec op df in
  let d = find_code "TN010" ds in
  check_bool "warning" true (d.An.Diagnostic.severity = An.Diagnostic.Warning);
  (* warnings only: the dataflow is still valid *)
  check_int "no errors" 0 (List.length (An.Diagnostic.errors ds))

(* --- TN011: raw relation not single-valued ------------------------- *)

let test_tn011_not_single_valued () =
  let sp = Isl.Space.make "S" [ "i" ] in
  let st = Isl.Space.make "ST" [ "t" ] in
  let dom = P.set "{ S[i] : 0 <= i < 4 }" in
  let m1 = Isl.Map.intersect_domain (Isl.Map.of_exprs sp st [ Isl.Aff.Var "i" ]) dom in
  let m2 =
    Isl.Map.intersect_domain
      (Isl.Map.of_exprs sp st [ Isl.Aff.Add (Isl.Aff.Var "i", Isl.Aff.Int 1) ])
      dom
  in
  let ds = An.Checker.check_theta_map (Isl.Map.union m1 m2) in
  let d = find_code "TN011" ds in
  ignore (witness_of d);
  (* i -> i+1 and i+1 -> i+1 also collide *)
  ignore (find_code "TN003" ds);
  (* a well-formed theta checks clean *)
  check_int "clean theta" 0
    (List.length (An.Checker.check_theta_map m1))

(* --- TN012: the counting sanitizer --------------------------------- *)

let test_tn012_count_verify () =
  (* force a mismatch with a stubbed reference evaluator *)
  let s = P.set "{ V[i] : 0 <= i < 5 }" in
  Isl.Count.verify_oracle_for_tests := Some (fun _ -> -1);
  Isl.Count.cache_clear ();
  Fun.protect
    ~finally:(fun () ->
      Isl.Count.verify_oracle_for_tests := None;
      Isl.Count.set_verify_mode None;
      Isl.Count.cache_clear ())
    (fun () ->
      match An.Checker.with_count_verify (fun () -> Isl.Set.card s) with
      | Ok n -> Alcotest.fail (Printf.sprintf "mismatch not caught: %d" n)
      | Error d ->
          check_bool "code" true (String.equal d.An.Diagnostic.code "TN012"));
  (* with the real reference evaluator the sanitizer is silent *)
  Isl.Count.cache_clear ();
  match An.Checker.with_count_verify (fun () -> Isl.Set.card s) with
  | Ok n -> check_int "verified count" 5 n
  | Error d -> Alcotest.fail (An.Diagnostic.to_string d)

(* --- precheck, JSON, registry -------------------------------------- *)

let test_precheck_cheap () =
  let op = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:16 in
  let spec = Arch.Repository.find "tpu-8x8-systolic" in
  let bad = Df.Zoo.gemm_ij_p_ijk_t ~p:9 () in
  let good = Df.Zoo.gemm_ij_p_ijk_t () in
  check_bool "rejects oob" true
    (An.Diagnostic.errors (An.Checker.precheck spec op bad) <> []);
  check_int "accepts valid" 0
    (List.length (An.Checker.precheck spec op good))

let test_diagnostic_json () =
  let d =
    An.Diagnostic.make
      ~witness:(An.Diagnostic.witness ~note:"n" ~space:"S[i]" [| 3 |])
      "TN002" "msg"
  in
  let s = Tenet.Obs.Json.to_string (An.Diagnostic.to_json d) in
  List.iter
    (fun frag -> check_bool frag true (contains s frag))
    [ "TN002"; "out-of-array"; "error"; "S[i]"; "\"note\"" ]

let test_registry_codes_unique () =
  let cs = List.map (fun (c, _, _, _) -> c) An.Diagnostic.registry in
  check_int "unique" (List.length cs)
    (List.length (List.sort_uniq String.compare cs));
  check_bool "at least 12 codes" true (List.length cs >= 12)

(* --- satellites: parser positions, suggestions --------------------- *)

let test_parser_positions () =
  let expect_positioned f =
    match f () with
    | _ -> Alcotest.fail "expected Parse_error"
    | exception Isl.Parser.Parse_error msg ->
        check_bool ("offset in: " ^ msg) true (contains msg "at offset")
  in
  expect_positioned (fun () -> P.set "{ S[i] : 0 <= }");
  expect_positioned (fun () -> P.map "{ S[i] -> }");
  expect_positioned (fun () -> P.expr ~dims:[ "i" ] "i + ")

let test_suggestions () =
  Alcotest.(check (option string))
    "typo" (Some "gemm")
    (Tenet.Util.Text.suggest "gemmm" [ "gemm"; "conv" ]);
  Alcotest.(check (option string))
    "transposition" (Some "conv")
    (Tenet.Util.Text.suggest "cnov" [ "gemm"; "conv" ]);
  Alcotest.(check (option string))
    "far off" None
    (Tenet.Util.Text.suggest "transformer" [ "gemm"; "conv" ]);
  check_int "damerau" 1 (Tenet.Util.Text.edit_distance "conv" "cnov")

(* --- TN014-TN019: resource feasibility ----------------------------- *)

let generous spec =
  Arch.Spec.with_capacities ~scratchpad_bytes:(1 lsl 22) ~pe_regs:64
    ~link_width:8 ~pe_ports:8 ~max_fanout:64 ~dram_bw:4096 spec

(* generous capacities on every subject: the whole sweep stays clean,
   so the zoo is certified resource-feasible, not just structurally
   valid.  The non-conv subset keeps the runtime small; scripts/ci.sh
   runs the full sweep through `tenet check --all --capacities`. *)
let test_capacity_sweep_clean () =
  let subjects =
    List.filter
      (fun (s : An.Checker.subject) -> s.An.Checker.s_kernel <> "conv")
      (An.Checker.zoo_subjects ())
    |> List.map (fun (s : An.Checker.subject) ->
           { s with An.Checker.s_spec = generous s.An.Checker.s_spec })
  in
  check_bool "enough subjects" true (List.length subjects >= 30);
  List.iter
    (fun ((s : An.Checker.subject), ds) ->
      match ds with
      | [] -> ()
      | d :: _ ->
          Alcotest.fail
            (Printf.sprintf "%s / %s / %s: %s" s.An.Checker.s_arch
               s.An.Checker.s_kernel s.An.Checker.s_df.Df.Dataflow.name
               (An.Diagnostic.to_string d)))
    (An.Checker.check_subjects subjects)

let test_tn014_pe_regs () =
  let op = gemm8 () in
  let df = Df.Zoo.gemm_ij_p_ijk_t () in
  let spec =
    Arch.Spec.with_capacities ~pe_regs:1
      (Arch.Repository.find "tpu-8x8-systolic")
  in
  let d = find_code "TN014" (An.Checker.check spec op df) in
  let w = witness_of d in
  (* the witness is a full (p.., t..) stamp of the dataflow *)
  check_int "stamp arity"
    (Df.Dataflow.n_space df + Df.Dataflow.n_time df)
    (Array.length w.An.Diagnostic.wpoint);
  (* gemm touches Y, A and B at every instance: 3 live words > 1 *)
  check_bool "mentions demand" true (contains d.An.Diagnostic.message "3");
  (* at 64 registers the same subject is clean *)
  check_int "clean at 64" 0
    (List.length
       (An.Checker.check
          (Arch.Spec.with_capacities ~pe_regs:64
             (Arch.Repository.find "tpu-8x8-systolic"))
          op df))

let test_tn014_scratchpad () =
  let op = gemm8 () in
  let df = Df.Zoo.gemm_ij_p_ijk_t () in
  let spec =
    Arch.Spec.with_capacities ~scratchpad_bytes:16
      (Arch.Repository.find "tpu-8x8-systolic")
  in
  let d = find_code "TN014" (An.Checker.check spec op df) in
  let w = witness_of d in
  check_int "time witness" (Df.Dataflow.n_time df)
    (Array.length w.An.Diagnostic.wpoint);
  check_bool "mentions bytes" true
    (contains d.An.Diagnostic.message "scratchpad_bytes = 16")

(* a 1D pipeline where each PE pulls two tensors from its left
   neighbor every stamp: the edge carries 2 transfers, a 1-wide link
   overflows *)
let shift2_op () =
  Ir.Tensor_op.make ~name:"shift2"
    ~iters:[ ("t", 0, 3); ("i", 0, 3) ]
    ~accesses:
      Ir.Tensor_op.
        [
          {
            tensor = "Y";
            subscripts = Isl.Aff.[ Var "i"; Var "t" ];
            direction = Write;
          };
          {
            tensor = "A";
            subscripts = Isl.Aff.[ Sub (Var "i", Var "t") ];
            direction = Read;
          };
          {
            tensor = "B";
            subscripts =
              Isl.Aff.[ Mul (Int 2, Sub (Var "i", Var "t")) ];
            direction = Read;
          };
        ]
    ()

let shift2_df () =
  Df.Dataflow.make ~name:"shift2-flow"
    ~space:Isl.Aff.[ Var "i" ]
    ~time:Isl.Aff.[ Var "t" ]

let test_tn015_link_contention () =
  let op = shift2_op () and df = shift2_df () in
  let spec = Arch.Spec.with_capacities ~link_width:1 (d1_spec ~n:4 ()) in
  let d = find_code "TN015" (An.Checker.check spec op df) in
  let w = witness_of d in
  (* witness = (t, source PE, destination PE): a real wire, one hop *)
  check_int "triple arity" 3 (Array.length w.An.Diagnostic.wpoint);
  check_int "one hop" 1
    (w.An.Diagnostic.wpoint.(2) - w.An.Diagnostic.wpoint.(1));
  (* a 2-wide link fits both tensors *)
  let wide = Arch.Spec.with_capacities ~link_width:2 (d1_spec ~n:4 ()) in
  check_bool "clean at 2" true
    (not (List.mem "TN015" (codes (An.Checker.check wide op df))))

let test_tn016_pe_ports () =
  let op = gemm8 () in
  let df = Df.Zoo.gemm_ij_p_ijk_t () in
  let spec =
    Arch.Spec.with_capacities ~pe_ports:1
      (Arch.Repository.find "tpu-8x8-systolic")
  in
  let d = find_code "TN016" (An.Checker.check spec op df) in
  ignore (witness_of d);
  (* the demand is the access count of the op, independent of size *)
  check_bool "mentions access count" true
    (contains d.An.Diagnostic.message
       (string_of_int (List.length op.Ir.Tensor_op.accesses)))

let test_tn017_fanout () =
  (* every PE reads the same A[t] each stamp over an all-to-all
     interval-0 fabric: the lex-least PE feeds the other 3 *)
  let op =
    Ir.Tensor_op.make ~name:"bcast"
      ~iters:[ ("t", 0, 3); ("i", 0, 3) ]
      ~accesses:
        Ir.Tensor_op.
          [
            {
              tensor = "Y";
              subscripts = Isl.Aff.[ Var "i"; Var "t" ];
              direction = Write;
            };
            { tensor = "A"; subscripts = [ Isl.Aff.Var "t" ]; direction = Read };
          ]
      ()
  in
  let df = shift2_df () in
  let rel =
    P.map "{ PE[i] -> PE[j] : 0 <= i < 4 and 0 <= j < 4 and i != j }"
  in
  let spec =
    Arch.Spec.with_capacities ~max_fanout:1 (custom_spec ~n:4 ~rel ~interval:0)
  in
  let d = find_code "TN017" (An.Checker.check spec op df) in
  let w = witness_of d in
  (* witness = (t, source PE); PE 0 is the lex-least holder *)
  check_int "pair arity" 2 (Array.length w.An.Diagnostic.wpoint);
  check_int "lex-least source" 0 w.An.Diagnostic.wpoint.(1);
  check_bool "three destinations" true (contains d.An.Diagnostic.message "3")

let test_tn018_dram () =
  let op = gemm8 () in
  let df = Df.Zoo.gemm_ij_p_ijk_t () in
  let spec =
    Arch.Spec.with_capacities ~dram_bw:1
      (Arch.Repository.find "tpu-8x8-systolic")
  in
  let d = find_code "TN018" (An.Checker.check spec op df) in
  let w = witness_of d in
  check_int "time witness" (Df.Dataflow.n_time df)
    (Array.length w.An.Diagnostic.wpoint)

let test_tn019_lint () =
  let spec = d1_spec () in
  (match An.Capacity.lint spec with
  | [ d ] ->
      check_bool "code" true (String.equal d.An.Diagnostic.code "TN019");
      check_bool "info" true (d.An.Diagnostic.severity = An.Diagnostic.Info);
      check_bool "not an error" true (not (An.Diagnostic.is_error d));
      ignore (witness_of d)
  | ds -> Alcotest.fail (Printf.sprintf "expected one TN019, got %d" (List.length ds)));
  (* a spec with any capacity declared does not lint *)
  check_int "declared -> silent" 0
    (List.length (An.Capacity.lint (Arch.Spec.with_capacities ~pe_regs:4 spec)));
  (* the checker itself never emits TN019 (CLI-only concern) *)
  let op = gemm8 () in
  let ds = An.Checker.check spec op (Df.Zoo.gemm_k_p_ij_t ()) in
  check_bool "no TN019 from check" true
    (not (List.exists (fun d -> d.An.Diagnostic.code = "TN019") ds))

(* --- ordering: reports are byte-stable ------------------------------ *)

let test_diagnostic_order () =
  (* a subject with several findings: collapsing k produces TN003 +
     TN008 at least *)
  let op = gemm8 () in
  let df =
    Df.Dataflow.make ~name:"no-k"
      ~space:Isl.Aff.[ Var "i" ]
      ~time:Isl.Aff.[ Var "j" ]
  in
  let ds = An.Checker.check (d1_spec ()) op df in
  check_bool "several findings" true (List.length ds >= 2);
  let sorted = List.sort An.Diagnostic.compare_diag ds in
  check_bool "already sorted" true (ds = sorted);
  (* stable across runs *)
  check_bool "deterministic" true
    (ds = An.Checker.check (d1_spec ()) op df);
  (* compare_diag is a total order keyed by code first *)
  let cs = codes ds in
  check_bool "codes ascending" true (cs = List.sort String.compare cs)

let test_explanations_cover_registry () =
  List.iter
    (fun (c, _, _, _) ->
      match An.Diagnostic.explain c with
      | Some text -> check_bool (c ^ " documented") true (String.length text > 40)
      | None -> Alcotest.fail (c ^ ": no explanation"))
    An.Diagnostic.registry;
  List.iter
    (fun (c, _) ->
      check_bool (c ^ " registered") true
        (List.exists (fun (c', _, _, _) -> c = c') An.Diagnostic.registry))
    An.Diagnostic.explanations;
  check_bool "unknown code" true (An.Diagnostic.explain "TN999" = None)

let test_zoo_find () =
  let df = Df.Zoo.find "gemm/(IJ-P | J,IJK-T)" in
  check_bool "qualified" true (String.length df.Df.Dataflow.name > 0);
  let df2 = Df.Zoo.find "(CRXRY-P | OY,OX-T) maeri" in
  check_bool "bare unique" true
    (String.equal df2.Df.Dataflow.name "(CRXRY-P | OY,OX-T) maeri");
  (match Df.Zoo.find "gemm/(IJ-P | J,IJK-TT)" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      check_bool "suggests" true (contains msg "Did you mean"))

let () =
  Alcotest.run "analysis"
    [
      ( "sweep",
        [
          (* first, so its domains fill the memo from cold *)
          Alcotest.test_case "parallel checks" `Quick test_parallel_checks;
          Alcotest.test_case "zoo x repository clean" `Quick test_sweep_clean;
          Alcotest.test_case "builtin archs clean" `Quick
            test_builtin_archs_clean;
          Alcotest.test_case "zoo pin" `Quick test_check_zoo_golden;
          Alcotest.test_case "TN003 iff conflict" `Quick
            test_tn003_iff_conflict;
        ] );
      ( "negative",
        [
          Alcotest.test_case "TN001 rank" `Quick test_tn001_rank;
          Alcotest.test_case "TN002 bounds" `Quick test_tn002_bounds;
          Alcotest.test_case "TN003 conflict" `Quick test_tn003_conflict;
          Alcotest.test_case "TN004 causality" `Quick test_tn004_causality;
          Alcotest.test_case "TN005 out of array" `Quick
            test_tn005_out_of_array;
          Alcotest.test_case "TN005 self loop" `Quick test_tn005_self_loop;
          Alcotest.test_case "TN005 rank" `Quick test_tn005_rank;
          Alcotest.test_case "TN005 keyed by dims" `Quick
            test_tn005_keyed_by_dims;
          Alcotest.test_case "TN006 phantom reuse" `Quick
            test_tn006_phantom_reuse;
          Alcotest.test_case "TN007 empty domain" `Quick
            test_tn007_empty_domain;
          Alcotest.test_case "TN008 unused iterator" `Quick
            test_tn008_unused_iterator;
          Alcotest.test_case "TN009 unknown iterator" `Quick
            test_tn009_unknown_iterator;
          Alcotest.test_case "TN010 degenerate" `Quick test_tn010_degenerate;
          Alcotest.test_case "TN011 not single-valued" `Quick
            test_tn011_not_single_valued;
          Alcotest.test_case "TN012 count verify" `Quick
            test_tn012_count_verify;
        ] );
      ( "api",
        [
          Alcotest.test_case "precheck" `Quick test_precheck_cheap;
          Alcotest.test_case "diagnostic json" `Quick test_diagnostic_json;
          Alcotest.test_case "registry codes" `Quick
            test_registry_codes_unique;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "generous sweep clean" `Quick
            test_capacity_sweep_clean;
          Alcotest.test_case "TN014 pe regs" `Quick test_tn014_pe_regs;
          Alcotest.test_case "TN014 scratchpad" `Quick test_tn014_scratchpad;
          Alcotest.test_case "TN015 link contention" `Quick
            test_tn015_link_contention;
          Alcotest.test_case "TN016 pe ports" `Quick test_tn016_pe_ports;
          Alcotest.test_case "TN017 fanout" `Quick test_tn017_fanout;
          Alcotest.test_case "TN018 dram" `Quick test_tn018_dram;
          Alcotest.test_case "TN019 lint" `Quick test_tn019_lint;
          Alcotest.test_case "diagnostic order" `Quick test_diagnostic_order;
          Alcotest.test_case "explanations cover registry" `Quick
            test_explanations_cover_registry;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "parser positions" `Quick test_parser_positions;
          Alcotest.test_case "suggestions" `Quick test_suggestions;
          Alcotest.test_case "zoo find" `Quick test_zoo_find;
        ] );
    ]

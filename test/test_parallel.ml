(* The Domain work pool ({!Tenet_util.Parallel}) and the determinism
   guarantee that rides on it: results are written at their input index
   and the DSE sort is stable, so any job count produces bit-identical
   output.  These tests run the pool at jobs=4 even on a single-core
   host — correctness must not depend on the machine shape. *)

module Parallel = Tenet_util.Parallel
module Ir = Tenet_ir
module Arch = Tenet_arch
module M = Tenet_model
module Dse = Tenet_dse.Dse

let with_jobs n f =
  Parallel.set_jobs n;
  Fun.protect ~finally:(fun () -> Parallel.set_jobs 1) f

(* --- parse_jobs ----------------------------------------------------- *)

let test_parse_jobs () =
  Alcotest.(check int) "plain" 4 (Parallel.parse_jobs ~what:"t" "4");
  Alcotest.(check int) "trimmed" 2 (Parallel.parse_jobs ~what:"t" " 2 ");
  let rejects s =
    match Parallel.parse_jobs ~what:"t" s with
    | n -> Alcotest.failf "parse_jobs %S: expected failure, got %d" s n
    | exception Failure _ -> ()
  in
  rejects "0";
  rejects "-3";
  rejects "abc";
  rejects "";
  rejects "2.5"

let test_set_jobs_rejects () =
  match Parallel.set_jobs 0 with
  | () -> Alcotest.fail "set_jobs 0 accepted"
  | exception Invalid_argument _ -> ()

(* --- map semantics -------------------------------------------------- *)

let test_map_order () =
  with_jobs 4 (fun () ->
      let input = List.init 257 (fun i -> i) in
      let expect = List.map (fun i -> (i * i) + 1) input in
      Alcotest.(check (list int))
        "map == List.map" expect
        (Parallel.map (fun i -> (i * i) + 1) input);
      let arr = Array.init 100 (fun i -> 100 - i) in
      Alcotest.(check (array int))
        "map_array == Array.map" (Array.map succ arr)
        (Parallel.map_array succ arr);
      Alcotest.(check (array int))
        "init == Array.init" (Array.init 64 (fun i -> i * 3))
        (Parallel.init 64 (fun i -> i * 3)))

let test_map_small_and_empty () =
  with_jobs 4 (fun () ->
      Alcotest.(check (list int)) "empty" [] (Parallel.map succ []);
      Alcotest.(check (list int)) "singleton" [ 8 ] (Parallel.map succ [ 7 ]))

exception Boom of int

let test_map_exception () =
  with_jobs 4 (fun () ->
      match
        Parallel.map
          (fun i -> if i mod 10 = 7 then raise (Boom i) else i)
          (List.init 50 (fun i -> i))
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
          (* smallest failing index, regardless of scheduling *)
          Alcotest.(check int) "first failure wins" 7 i)

let test_map_chunked () =
  with_jobs 4 (fun () ->
      let input = List.init 100 (fun i -> i) in
      let expect = List.map succ input in
      (* explicit chunking must not change results or order, whatever
         the chunk size's relation to the input length *)
      List.iter
        (fun chunk ->
          Alcotest.(check (list int))
            (Printf.sprintf "chunk=%d" chunk)
            expect
            (Parallel.map ~chunk succ input))
        [ 1; 2; 7; 100; 1000 ];
      Alcotest.(check (array int))
        "map_array chunked" (Array.init 33 succ)
        (Parallel.map_array ~chunk:5 succ (Array.init 33 Fun.id));
      Alcotest.(check (array int))
        "init chunked"
        (Array.init 65 (fun i -> i * 2))
        (Parallel.init ~chunk:9 65 (fun i -> i * 2));
      match Parallel.map_array ~chunk:0 succ [| 1 |] with
      | _ -> Alcotest.fail "chunk=0 accepted"
      | exception Invalid_argument _ -> ())

let test_nested_map () =
  with_jobs 4 (fun () ->
      let got =
        Parallel.map
          (fun i -> List.fold_left ( + ) 0 (Parallel.map (( * ) i) [ 1; 2; 3 ]))
          (List.init 20 (fun i -> i))
      in
      Alcotest.(check (list int))
        "nested maps stay correct"
        (List.init 20 (fun i -> 6 * i))
        got)

(* --- determinism of parallel counting and DSE ----------------------- *)

let test_dse_deterministic () =
  let op = Ir.Kernels.conv2d ~nk:4 ~nc:4 ~nox:6 ~noy:6 ~nrx:3 ~nry:3 in
  let spec = Arch.Repository.tpu_like ~n:4 ~bandwidth:4 () in
  let cands = Dse.candidates_2d op ~p:4 in
  let digest outcomes =
    List.map
      (fun (o : Dse.outcome) ->
        ( o.Dse.dataflow.Tenet_dataflow.Dataflow.name,
          o.Dse.metrics.M.Metrics.latency,
          o.Dse.metrics.M.Metrics.energy,
          o.Dse.metrics.M.Metrics.sbw,
          o.Dse.expressible ))
      outcomes
  in
  let sweep () =
    digest
      (Dse.search ~mode:Dse.Exhaustive ~objective:Dse.Latency spec op cands)
        .Dse.outcomes
  in
  let seq = sweep () in
  let par = with_jobs 4 sweep in
  if seq <> par then Alcotest.fail "DSE outcomes differ between jobs=1 and jobs=4";
  Alcotest.(check bool) "nonempty" true (seq <> [])

(* One Concrete.context scored from four domains at once: each walking
   domain works in its own scratch pool, and every walk advances its
   pool's epoch, so a result never depends on which domain served it or
   on what that domain walked before -- a conflicting (-t, last time
   coordinate dropped) dataflow included, with validation on (it raises
   mid-call) and off (hashed tables). *)
let test_shared_context_concurrent () =
  let module Df = Tenet_dataflow.Dataflow in
  let op = Ir.Kernels.conv2d ~nk:3 ~nc:2 ~nox:4 ~noy:4 ~nrx:3 ~nry:3 in
  let spec = Arch.Repository.find "tpu-8x8-systolic" in
  let drop_last (df : Df.t) =
    let n = List.length df.Df.time in
    Df.make ~name:(df.Df.name ^ " -t") ~space:df.Df.space
      ~time:(List.filteri (fun i _ -> i < n - 1) df.Df.time)
  in
  let zoo =
    List.filter_map
      (fun (s : Tenet_analysis.Checker.subject) ->
        if s.s_arch = "tpu-8x8-systolic" && s.s_kernel = "conv" then
          Some s.s_df
        else None)
      (Tenet_analysis.Checker.zoo_subjects ())
  in
  let dfs =
    Array.of_list
      (List.concat
         (List.init 3 (fun _ ->
              List.concat_map (fun df -> [ df; drop_last df ]) zoo)))
  in
  let score ctx df =
    let metrics =
      match M.Concrete.analyze_in ctx df with
      | m -> Tenet_obs.Json.to_string (M.Metrics.to_json m)
      | exception M.Concrete.Invalid_dataflow msg -> msg
    in
    let p = M.Concrete.time_profile ctx df in
    Printf.sprintf "%s | %d %b" metrics p.M.Concrete.p_timestamps
      p.M.Concrete.p_conflict
  in
  Alcotest.(check int) "conv zoo dataflows" 5 (List.length zoo);
  List.iter
    (fun validate ->
      let seq =
        let ctx = M.Concrete.context ~validate spec op in
        Array.map (score ctx) dfs
      in
      let ctx = M.Concrete.context ~validate spec op in
      let par =
        with_jobs 4 (fun () -> Parallel.map_array ~chunk:1 (score ctx) dfs)
      in
      Array.iteri
        (fun i want ->
          Alcotest.(check string)
            (Printf.sprintf "validate=%b #%d %s" validate i dfs.(i).Df.name)
            want par.(i))
        seq)
    [ true; false ]

(* One-shot analyses and simulator runs of mixed sizes on four domains
   at once, each domain drawing every walk's arrays from its own pool,
   give the sequential results. *)
let test_pools_concurrent () =
  let module Df = Tenet_dataflow.Dataflow in
  let module Sim = Tenet_sim.Simulator in
  let spec = Arch.Repository.find "tpu-8x8-systolic" in
  let df =
    let dims = [ "i"; "j"; "k" ] in
    Df.make ~name:"ij"
      ~space:(Tenet_isl.Parser.exprs ~dims "i%8,j%8")
      ~time:(Tenet_isl.Parser.exprs ~dims "i/8,j/8,k")
  in
  let conflicting =
    { df with Df.name = "ij -k"; time = [ List.hd df.Df.time ] }
  in
  let sizes = [ (16, 16, 8); (40, 24, 16); (8, 8, 4); (64, 32, 24) ] in
  let jobs =
    Array.of_list
      (List.concat_map
         (fun (ni, nj, nk) ->
           let op = Ir.Kernels.gemm ~ni ~nj ~nk in
           List.concat_map
             (fun df -> [ (`Analyze, op, df); (`Simulate, op, df) ])
             [ df; conflicting ])
         (sizes @ List.rev sizes))
  in
  let run (kind, op, df) =
    match kind with
    | `Analyze -> (
        match M.Concrete.analyze ~window:2 spec op df with
        | m -> Tenet_obs.Json.to_string (M.Metrics.to_json m)
        | exception M.Concrete.Invalid_dataflow msg -> msg)
    | `Simulate -> (
        match Sim.run ~window:2 spec op df with
        | r ->
            Printf.sprintf "%s pe=%d chip=%d" (Sim.to_string r)
              r.Sim.peak_pe_live r.Sim.peak_chip_live
        | exception M.Concrete.Invalid_dataflow msg -> msg)
  in
  let seq = Array.map run jobs in
  let par = with_jobs 4 (fun () -> Parallel.map_array ~chunk:1 run jobs) in
  Array.iteri
    (fun i want ->
      Alcotest.(check string) (Printf.sprintf "job %d" i) want par.(i))
    seq

let test_count_union_parallel_matches () =
  (* the per-disjunct union counting path must not depend on jobs *)
  let mk lo hi =
    let a1 = [| 1; 0 |] and a2 = [| -1; 0 |] in
    let b1 = [| 0; 1 |] and b2 = [| 0; -1 |] in
    {
      Tenet_isl.Bset.nvis = 2;
      defs = [||];
      cons =
        [
          { Tenet_isl.Bset.a = a1; k = -lo; eq = false };
          { Tenet_isl.Bset.a = a2; k = hi; eq = false };
          { Tenet_isl.Bset.a = b1; k = -lo; eq = false };
          { Tenet_isl.Bset.a = b2; k = hi; eq = false };
        ];
    }
  in
  let bs = [ mk 0 5; mk 3 9; mk (-2) 1; mk 7 12 ] in
  let seq = Tenet_isl.Count.count_union bs in
  Tenet_isl.Count.cache_clear ();
  let par = with_jobs 4 (fun () -> Tenet_isl.Count.count_union bs) in
  Alcotest.(check int) "union count independent of jobs" seq par

let () =
  Alcotest.run "parallel"
    [
      ( "api",
        [
          Alcotest.test_case "parse_jobs strictness" `Quick test_parse_jobs;
          Alcotest.test_case "set_jobs rejects < 1" `Quick
            test_set_jobs_rejects;
        ] );
      ( "map",
        [
          Alcotest.test_case "order preservation" `Quick test_map_order;
          Alcotest.test_case "empty & singleton" `Quick test_map_small_and_empty;
          Alcotest.test_case "explicit chunking" `Quick test_map_chunked;
          Alcotest.test_case "exception propagation" `Quick test_map_exception;
          Alcotest.test_case "nested maps" `Quick test_nested_map;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "dse jobs=4 == jobs=1" `Quick
            test_dse_deterministic;
          Alcotest.test_case "count_union jobs=4 == jobs=1" `Quick
            test_count_union_parallel_matches;
          Alcotest.test_case "shared concrete context, jobs=4" `Quick
            test_shared_context_concurrent;
          Alcotest.test_case "one-shot analyses and simulator runs, jobs=4"
            `Quick test_pools_concurrent;
        ] );
    ]

(* Tests for the design-space exploration module. *)

module Ir = Tenet.Ir
module Arch = Tenet.Arch
module Df = Tenet.Dataflow
module M = Tenet.Model
module Dse = Tenet.Dse.Dse

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Every candidate scored, best first: the exhaustive oracle. *)
let exhaustive ?(objective = Dse.Latency) spec op cands =
  (Dse.search ~mode:Dse.Exhaustive ~objective spec op cands).Dse.outcomes

let test_candidate_counts () =
  let op = Ir.Kernels.gemm ~ni:8 ~nj:8 ~nk:8 in
  (* 2D: 6 ordered pairs x 1 remaining inner dim x 2 (skew or not) *)
  check_int "gemm 2D" 12 (List.length (Dse.candidates_2d op ~p:4));
  (* 1D: 3 choices of spatial dim x 2 inner dims *)
  check_int "gemm 1D" 6 (List.length (Dse.candidates_1d op ~p:8));
  let conv = Ir.Kernels.conv2d ~nk:4 ~nc:4 ~nox:4 ~noy:4 ~nrx:3 ~nry:3 in
  (* 30 ordered pairs x 4 inner x 2 *)
  check_int "conv 2D" 240 (List.length (Dse.candidates_2d conv ~p:4));
  (* with outer permutations: 30 x 4 x 2 x 3! *)
  check_int "conv 2D permuted" 1440
    (List.length (Dse.candidates_2d ~permute_outer:true conv ~p:4))

let test_unique_names () =
  let op = Ir.Kernels.gemm ~ni:8 ~nj:8 ~nk:8 in
  let names =
    List.map (fun d -> d.Df.Dataflow.name) (Dse.candidates_2d op ~p:4)
  in
  check_int "names distinct" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_search_finds_tpu_class () =
  (* on a square GEMM the known-good dataflows must be near the top *)
  let op = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:16 in
  let spec = Arch.Repository.tpu_like ~bandwidth:8 () in
  let cands = Dse.candidates_2d op ~p:8 in
  match exhaustive spec op cands with
  | [] -> Alcotest.fail "no valid dataflow found"
  | o :: _ ->
      check_bool "best latency sane" true (o.Dse.metrics.M.Metrics.latency > 0.)

let test_expressible_subset () =
  let op = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:16 in
  let spec = Arch.Repository.tpu_like ~bandwidth:8 () in
  let cands = Dse.candidates_2d op ~p:8 in
  let all = exhaustive spec op cands in
  let expressible = List.filter (fun o -> o.Dse.expressible) all in
  check_bool "strict subset" true
    (List.length expressible < List.length all && expressible <> []);
  (* the skewed candidates must be classified inexpressible *)
  List.iter
    (fun o ->
      let skewed =
        List.exists
          (fun e ->
            List.length
              (List.sort_uniq compare (Tenet.Isl.Aff.free_vars e))
            > 1)
          o.Dse.dataflow.Df.Dataflow.time
      in
      if skewed then check_bool "skewed -> inexpressible" false o.Dse.expressible)
    all

let test_fig6_direction () =
  (* at low bandwidth, the best relation-centric dataflow must beat or
     match the best data-centric-expressible one (Fig 6's claim); one
     exhaustive sweep answers both sides *)
  let op = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:16 in
  let cands = Dse.candidates_2d op ~p:8 @ Dse.candidates_1d op ~p:64 in
  List.iter
    (fun bw ->
      let spec = Arch.Repository.tpu_like ~bandwidth:bw () in
      let all = exhaustive spec op cands in
      match (all, List.find_opt (fun o -> o.Dse.expressible) all) with
      | b :: _, Some be ->
          check_bool
            (Printf.sprintf "bw=%d: tenet <= data-centric" bw)
            true
            (b.Dse.metrics.M.Metrics.latency
            <= be.Dse.metrics.M.Metrics.latency)
      | _ -> Alcotest.fail "search failed")
    [ 2; 8; 64 ]

let test_invalid_candidates_dropped () =
  (* a 16-wide PE request on an 8x8 array: all 2D candidates with p=16
     are invalid and must be silently dropped *)
  let op = Ir.Kernels.gemm ~ni:32 ~nj:32 ~nk:32 in
  let spec = Arch.Repository.tpu_like ~n:8 () in
  let cands = Dse.candidates_2d op ~p:16 in
  check_int "all dropped" 0
    (List.length (exhaustive spec op cands))

let test_objectives () =
  let op = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:16 in
  let spec = Arch.Repository.tpu_like ~bandwidth:4 () in
  let cands = Dse.candidates_2d op ~p:8 in
  let by_lat = List.hd (exhaustive ~objective:Dse.Latency spec op cands) in
  let by_en = List.hd (exhaustive ~objective:Dse.Energy spec op cands) in
  let by_sbw = List.hd (exhaustive ~objective:Dse.Sbw spec op cands) in
  (* each winner is optimal under its own objective *)
  let all = exhaustive spec op cands in
  List.iter
    (fun o ->
      check_bool "latency opt" true
        (by_lat.Dse.metrics.M.Metrics.latency <= o.Dse.metrics.M.Metrics.latency);
      check_bool "energy opt" true
        (by_en.Dse.metrics.M.Metrics.energy <= o.Dse.metrics.M.Metrics.energy);
      check_bool "sbw opt" true
        (by_sbw.Dse.metrics.M.Metrics.sbw <= o.Dse.metrics.M.Metrics.sbw))
    all

(* ------------------------------------------------------------------ *)
(* Mapper soundness: the pruned and heuristic modes against the        *)
(* exhaustive oracle.                                                  *)
(* ------------------------------------------------------------------ *)

(* Byte-level metric identity, name included: pruning is only sound if
   the winner is the same mapping with the same numbers. *)
let metrics_key (o : Dse.outcome) : string =
  Tenet.Obs.Json.to_string (M.Metrics.to_json o.Dse.metrics)

let first_expressible outcomes =
  List.find_opt (fun o -> o.Dse.expressible) outcomes

(* A spread of shapes: square (transpose symmetry live), non-square and
   rectangular meshes (transpose disabled), 1D, lex-step adjacency
   (symmetry disabled entirely), and outer-order permutations. *)
let mapper_subjects () =
  let gemm = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:16 in
  let conv = Ir.Kernels.conv2d ~nk:4 ~nc:4 ~nox:4 ~noy:4 ~nrx:3 ~nry:3 in
  [
    ( "gemm/tpu8",
      Arch.Repository.tpu_like ~bandwidth:8 (),
      gemm,
      `Inner_step,
      Dse.candidates_2d gemm ~p:8 @ Dse.candidates_1d gemm ~p:64 );
    ( "gemm/tpu8/bw2",
      Arch.Repository.tpu_like ~bandwidth:2 (),
      gemm,
      `Inner_step,
      Dse.candidates_2d gemm ~p:8 );
    ( "conv/tpu4/permuted",
      Arch.Repository.tpu_like ~n:4 ~bandwidth:8 (),
      conv,
      `Inner_step,
      Dse.candidates_2d ~permute_outer:true conv ~p:4 );
    ( "gemm/mesh4x8",
      Arch.Repository.mesh_array ~rows:4 ~cols:8 ~bandwidth:8 (),
      gemm,
      `Inner_step,
      Dse.candidates_2d gemm ~p:4 );
    ( "gemm/eyeriss",
      Arch.Repository.eyeriss_like ~bandwidth:8 (),
      gemm,
      `Inner_step,
      Dse.candidates_2d gemm ~p:8 );
    ( "gemm/1d",
      Arch.Repository.systolic_1d ~n:16 ~bandwidth:8 (),
      gemm,
      `Inner_step,
      Dse.candidates_1d gemm ~p:16 );
    ( "gemm/tpu8/lex",
      Arch.Repository.tpu_like ~bandwidth:8 (),
      gemm,
      `Lex_step,
      Dse.candidates_2d gemm ~p:8 );
  ]

let with_jobs n f =
  let old = Tenet.Util.Parallel.jobs () in
  Tenet.Util.Parallel.set_jobs n;
  Fun.protect ~finally:(fun () -> Tenet.Util.Parallel.set_jobs old) f

let test_pruned_matches_oracle () =
  List.iter
    (fun (name, spec, op, adjacency, cands) ->
      let oracle =
        Dse.search ~adjacency ~mode:Dse.Exhaustive ~objective:Dse.Latency spec
          op cands
      in
      List.iter
        (fun jobs ->
          with_jobs jobs @@ fun () ->
          let pruned =
            Dse.search ~adjacency ~mode:Dse.Pruned ~objective:Dse.Latency spec
              op cands
          in
          let head r = List.nth_opt r.Dse.outcomes 0 in
          let opt_key = Option.map metrics_key in
          Alcotest.(check (option string))
            (Printf.sprintf "%s jobs=%d: best identical" name jobs)
            (opt_key (head oracle)) (opt_key (head pruned));
          Alcotest.(check (option string))
            (Printf.sprintf "%s jobs=%d: best expressible identical" name jobs)
            (opt_key (first_expressible oracle.Dse.outcomes))
            (opt_key (first_expressible pruned.Dse.outcomes));
          (* every surviving outcome, twins included, must byte-match
             the oracle's metrics for the same dataflow *)
          let tbl = Hashtbl.create 256 in
          List.iter
            (fun o ->
              Hashtbl.replace tbl o.Dse.dataflow.Df.Dataflow.name
                (metrics_key o))
            oracle.Dse.outcomes;
          List.iter
            (fun o ->
              match Hashtbl.find_opt tbl o.Dse.dataflow.Df.Dataflow.name with
              | None ->
                  Alcotest.failf "%s: %s not in oracle" name
                    o.Dse.dataflow.Df.Dataflow.name
              | Some k ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s: %s metrics" name
                       o.Dse.dataflow.Df.Dataflow.name)
                    k (metrics_key o))
            pruned.Dse.outcomes;
          check_bool
            (Printf.sprintf "%s: pruning accounted" name)
            true
            (pruned.Dse.stats.Dse.evaluated <= oracle.Dse.stats.Dse.evaluated))
        [ 1; 4 ])
    (mapper_subjects ())

let test_search_sizes_template_reuse () =
  (* the conv sweep across sizes: the first size pays a full search, the
     rest must be answered mostly by template reuse — and every reused
     score must byte-match a fresh concrete evaluation at that size *)
  let spec = Arch.Repository.tpu_like ~n:4 () in
  let op = Ir.Kernels.conv2d ~nk:4 ~nc:12 ~nox:12 ~noy:12 ~nrx:3 ~nry:3 in
  (* a thinned candidate pool keeps the base search and the per-template
     fits affordable; reuse behavior is independent of pool size *)
  let cands =
    List.filteri (fun i _ -> i mod 10 = 0) (Dse.candidates_2d op ~p:4)
  in
  let sizes =
    [
      [ ("c", 12); ("ox", 12); ("oy", 12) ];
      [ ("c", 12); ("ox", 20); ("oy", 16) ];
      [ ("c", 12); ("ox", 16); ("oy", 20) ];
    ]
  in
  let results =
    Dse.search_sizes ~mode:Dse.Pruned ~objective:Dse.Latency ~top:4 spec op
      cands ~sizes
  in
  check_int "one result per size" (List.length sizes) (List.length results);
  let rest = List.tl results in
  check_bool "template reuse on later sizes" true
    (List.exists (fun (_, r) -> r.Dse.stats.Dse.template_reuse > 0) rest);
  List.iter
    (fun (sz, r) ->
      check_bool "prune/stat accounting partitions the survivors" true
        (r.Dse.stats.Dse.template_reuse + r.Dse.stats.Dse.evaluated
        = r.Dse.stats.Dse.generated);
      List.iter
        (fun (o : Dse.outcome) ->
          let opn = M.Template.shrink_op op sz in
          let reference = M.Concrete.analyze spec opn o.Dse.dataflow in
          Alcotest.(check string)
            (Printf.sprintf "%s at %s"
               o.Dse.dataflow.Df.Dataflow.name
               (String.concat ","
                  (List.map
                     (fun (d, e) -> Printf.sprintf "%s=%d" d e)
                     sz)))
            (Tenet.Obs.Json.to_string (M.Metrics.to_json reference))
            (metrics_key o))
        r.Dse.outcomes)
    rest;
  (* first entry is the full search at the first size: identical to a
     direct search on the resized op *)
  let direct =
    Dse.search ~mode:Dse.Pruned ~objective:Dse.Latency spec
      (M.Template.shrink_op op (List.hd sizes))
      cands
  in
  let _, base = List.hd results in
  Alcotest.(check (list string))
    "base search identical to direct search"
    (List.map metrics_key direct.Dse.outcomes)
    (List.map metrics_key base.Dse.outcomes)

let test_heuristic_finds_best () =
  List.iter
    (fun (name, spec, op, adjacency, cands) ->
      let oracle =
        Dse.search ~adjacency ~mode:Dse.Exhaustive ~objective:Dse.Latency spec
          op cands
      in
      let budget = max 1 (List.length cands / 4) in
      let heur =
        Dse.search ~adjacency ~mode:Dse.Heuristic ~budget
          ~objective:Dse.Latency spec op cands
      in
      check_bool
        (Printf.sprintf "%s: within budget" name)
        true
        (heur.Dse.stats.Dse.evaluated <= budget);
      match (oracle.Dse.outcomes, heur.Dse.outcomes) with
      | [], [] -> ()
      | o :: _, h :: _ ->
          Alcotest.(check string)
            (Printf.sprintf "%s: heuristic best identical" name)
            (metrics_key o) (metrics_key h)
      | _ -> Alcotest.failf "%s: outcome presence differs" name)
    (mapper_subjects ())

let test_search_deterministic_across_jobs () =
  let op = Ir.Kernels.conv2d ~nk:4 ~nc:4 ~nox:4 ~noy:4 ~nrx:3 ~nry:3 in
  let spec = Arch.Repository.tpu_like ~n:4 ~bandwidth:8 () in
  let cands = Dse.candidates_2d ~permute_outer:true op ~p:4 in
  let digest mode =
    List.map metrics_key
      (Dse.search ~mode ~objective:Dse.Latency spec op cands).Dse.outcomes
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  List.iter
    (fun mode ->
      let d1 = with_jobs 1 (fun () -> digest mode) in
      let d4 = with_jobs 4 (fun () -> digest mode) in
      Alcotest.(check string) "jobs 1 = jobs 4" d1 d4)
    [ Dse.Exhaustive; Dse.Pruned; Dse.Heuristic ]

let test_prechecker_matches_precheck () =
  (* the staged prechecker used as the mapper's hard tier must agree
     with the diagnostic-producing precheck on every candidate *)
  let module An = Tenet.Analysis in
  List.iter
    (fun (name, spec, op, _, cands) ->
      let pc = An.Checker.prechecker spec op in
      List.iter
        (fun df ->
          check_bool
            (Printf.sprintf "%s: %s" name df.Df.Dataflow.name)
            (An.Diagnostic.errors (An.Checker.precheck spec op df) = [])
            (pc df))
        cands)
    (mapper_subjects ())

let test_search_stats_add_up () =
  let op = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:16 in
  let spec = Arch.Repository.tpu_like ~bandwidth:8 () in
  let cands = Dse.candidates_2d op ~p:8 @ Dse.candidates_1d op ~p:64 in
  let r = Dse.search ~mode:Dse.Pruned ~objective:Dse.Latency spec op cands in
  let st = r.Dse.stats in
  check_int "generated" (List.length cands) st.Dse.generated;
  (* in pruned mode every candidate lands in exactly one bucket:
     precheck-rejected, folded into a class rep (symmetry), a dominated
     rep, or submitted for full evaluation *)
  check_int "partition" st.Dse.generated
    (st.Dse.pruned_precheck + st.Dse.pruned_symmetry + st.Dse.pruned_capacity
   + st.Dse.pruned_dominated + st.Dse.evaluated)

(* A candidate whose time codes would wrap past the int range is refused
   by the time profile (tier 3b), which runs outside the full
   evaluation's handler: it must count as invalid, not abort the search.
   Forty one-stamp-per-k classes fill the first slice and set an
   incumbent of 8 stamps; the strided candidate has the same latency
   bound, so it is profiled in the second slice. *)
let test_wide_time_candidate_invalid () =
  let module A = Tenet.Isl.Aff in
  let op = Ir.Kernels.gemm ~ni:8 ~nj:8 ~nk:8 in
  let spec = Arch.Repository.tpu_like ~n:8 () in
  let space = [ A.Mod (A.var "i", 8); A.Mod (A.var "j", 8) ] in
  let shifted =
    List.init 40 (fun c ->
        Df.Dataflow.make ~name:(Printf.sprintf "k+%d" c) ~space
          ~time:[ A.Add (A.var "k", A.Int c) ])
  in
  let wide =
    Df.Dataflow.make ~name:"wide" ~space
      ~time:
        (List.map
           (fun v -> A.Mul (A.Int 2147483648, A.var v))
           [ "k"; "i"; "j" ])
  in
  let r = Dse.search ~mode:Dse.Pruned spec op (shifted @ [ wide ]) in
  check_int "every shifted class scored" 40 (List.length r.Dse.outcomes);
  check_int "the strided candidate evaluated" 41 r.Dse.stats.Dse.evaluated;
  check_bool "and dropped" false
    (List.exists
       (fun (o : Dse.outcome) -> o.Dse.dataflow.Df.Dataflow.name = "wide")
       r.Dse.outcomes)

(* --- the capacity prune tier (TN014-TN018 as a mapper filter) ------- *)

let generous spec =
  Arch.Spec.with_capacities ~scratchpad_bytes:(1 lsl 22) ~pe_regs:64
    ~link_width:8 ~pe_ports:8 ~max_fanout:64 ~dram_bw:4096 spec

let test_capacity_prune_oracle () =
  let op = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:16 in
  let cands = Dse.candidates_2d op ~p:8 @ Dse.candidates_1d op ~p:64 in
  (* generous capacities: nothing is provably infeasible, so the pruned
     search returns the oracle's best byte-for-byte *)
  let spec = generous (Arch.Repository.tpu_like ~bandwidth:8 ()) in
  let oracle =
    Dse.search ~mode:Dse.Exhaustive ~objective:Dse.Latency spec op cands
  in
  let pruned =
    Dse.search ~mode:Dse.Pruned ~objective:Dse.Latency spec op cands
  in
  check_int "no prune at generous caps" 0
    pruned.Dse.stats.Dse.pruned_capacity;
  let opt_key r = Option.map metrics_key (List.nth_opt r.Dse.outcomes 0) in
  Alcotest.(check (option string))
    "best identical" (opt_key oracle) (opt_key pruned)

let test_capacity_prune_fires () =
  let op = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:16 in
  let cands = Dse.candidates_2d op ~p:8 in
  (* a 64-byte scratchpad cannot hold any 8x8 mapping's working set:
     the tier must reject candidates, and only with a proof — every
     survivor's metrics still byte-match the oracle *)
  let spec =
    Arch.Spec.with_capacities ~scratchpad_bytes:64
      (Arch.Repository.tpu_like ~bandwidth:8 ())
  in
  let oracle =
    Dse.search ~mode:Dse.Exhaustive ~objective:Dse.Latency spec op cands
  in
  let pruned =
    Dse.search ~mode:Dse.Pruned ~objective:Dse.Latency spec op cands
  in
  let st = pruned.Dse.stats in
  check_bool "tier fires" true (st.Dse.pruned_capacity > 0);
  check_int "partition with capacity tier" st.Dse.generated
    (st.Dse.pruned_precheck + st.Dse.pruned_symmetry + st.Dse.pruned_capacity
   + st.Dse.pruned_dominated + st.Dse.evaluated);
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun o ->
      Hashtbl.replace tbl o.Dse.dataflow.Df.Dataflow.name (metrics_key o))
    oracle.Dse.outcomes;
  List.iter
    (fun o ->
      match Hashtbl.find_opt tbl o.Dse.dataflow.Df.Dataflow.name with
      | None ->
          Alcotest.failf "%s not in oracle" o.Dse.dataflow.Df.Dataflow.name
      | Some k ->
          Alcotest.(check string) o.Dse.dataflow.Df.Dataflow.name k
            (metrics_key o))
    pruned.Dse.outcomes;
  (* exhaustive mode never applies the tier *)
  check_int "oracle untouched" 0 oracle.Dse.stats.Dse.pruned_capacity

(* --- count-free bounds of the capacity tier ------------------------ *)

module Isl = Tenet.Isl
module An = Tenet.Analysis
module Obs = Tenet.Obs

(* The dse_mapper benchmark's shapes with the candidate lists it
   searches: 2D on the 8x8 arrays, 1D on the 64-PE one. *)
let mapper_shapes () =
  let shapes =
    [
      ("conv", [ 4; 2; 4; 4; 3; 3 ]);
      ("conv", [ 8; 4; 4; 4; 1; 1 ]);
      ("gemm", [ 8; 8; 4 ]);
      ("gemm", [ 8; 12; 8 ]);
      ("gemm", [ 12; 16; 8 ]);
      ("gemm", [ 16; 16; 12 ]);
      ("gemm", [ 8; 16; 12 ]);
      ("mttkrp", [ 6; 6; 2; 2 ]);
      ("mttkrp", [ 6; 8; 4; 2 ]);
      ("mttkrp", [ 8; 8; 4; 4 ]);
      ("mmc", [ 6; 6; 2; 2 ]);
      ("mmc", [ 6; 8; 2; 4 ]);
      ("mmc", [ 8; 8; 4; 4 ]);
    ]
  in
  List.map
    (fun (kernel, sizes) ->
      let module Api = Tenet.Serve.Api in
      let op =
        Api.op_of
          { (Api.Request.default Api.Request.Analyze) with kernel; sizes }
      in
      (op, Dse.candidates_2d op ~p:8 @ Dse.candidates_1d op ~p:64))
    shapes

(* Each zoo dataflow with its last time coordinate dropped: stamps then
   collide, so Θ is not injective. *)
let drop_last_time (df : Df.Dataflow.t) : Df.Dataflow.t =
  let time =
    List.filteri
      (fun i _ -> i < Df.Dataflow.n_time df - 1)
      df.Df.Dataflow.time
  in
  Df.Dataflow.make
    ~name:(df.Df.Dataflow.name ^ " -t")
    ~space:df.Df.Dataflow.space ~time

let zoo_pairs () =
  List.map
    (fun (s : An.Checker.subject) -> (s.An.Checker.s_op, s.An.Checker.s_df))
    (An.Checker.zoo_subjects ())

let test_injective_certificate_sound () =
  let certified pairs =
    List.length
      (List.filter
         (fun (op, df) ->
           let c = Df.Dataflow.injective_by_construction op df in
           if c then
             check_bool
               (df.Df.Dataflow.name ^ ": certified injective, so no conflict")
               true
               (Df.Dataflow.conflict_counts op df = None);
           c)
         pairs)
  in
  let zoo = zoo_pairs () in
  check_int "zoo subjects" 75 (List.length zoo);
  (* only the Eyeriss and MAERI stamps, which scale a [mod] term, are
     injective but not certified *)
  check_int "zoo certified" 71 (certified zoo);
  let dropped = List.map (fun (op, df) -> (op, drop_last_time df)) zoo in
  check_int "dropped-coordinate variants certified" 0 (certified dropped);
  List.iter
    (fun (op, df) ->
      check_bool (df.Df.Dataflow.name ^ " conflicts") true
        (Df.Dataflow.conflict_counts op df <> None))
    dropped;
  (* the mapper's generator places every iterator, so the per-PE bound
     applies to every candidate it makes *)
  List.iter
    (fun (op, cands) ->
      let n = List.length cands in
      check_int (op.Ir.Tensor_op.name ^ " candidates certified") n
        (certified (List.map (fun df -> (op, df)) cands)))
    (mapper_shapes ())

(* The capacity tier as it stood before its count-free bounds: every
   tensor counted, summed, and sampled at the stamp box's corners and
   midpoint; a resisting count or an exception keeps the candidate. *)
let reference_feasible (spec : Arch.Spec.t) (op : Ir.Tensor_op.t)
    (df : Df.Dataflow.t) : bool =
  let sample_points (bounds : (int * int) array) =
    let n = Array.length bounds in
    let mid = Array.map (fun (lo, hi) -> lo + ((hi - lo) / 2)) bounds in
    if n = 0 then [ mid ]
    else if n > 8 then [ mid; Array.map fst bounds; Array.map snd bounds ]
    else
      mid
      :: List.init (1 lsl n) (fun mask ->
             Array.init n (fun i ->
                 let lo, hi = bounds.(i) in
                 if mask land (1 lsl i) <> 0 then hi else lo))
  in
  let exceeds ~n_params ~assume ~cap relation =
    let counts =
      List.map
        (fun t ->
          Isl.Count.count_union_param ~n_params ~assume
            (Isl.Set.disjuncts (Isl.Map.wrap (relation t))))
        (Ir.Tensor_op.tensors op)
    in
    match
      List.fold_left
        (fun acc q ->
          match (acc, q) with
          | Some a, Some q -> Some (Isl.Qpoly.add a q)
          | _ -> None)
        (Some Isl.Qpoly.zero) counts
    with
    | None -> false
    | Some total ->
        List.exists
          (fun pt -> Isl.Qpoly.eval (fun i -> pt.(i)) total > cap)
          (sample_points assume)
  in
  let ports_bad =
    match spec.Arch.Spec.pe_ports with
    | Some ports -> List.length op.Ir.Tensor_op.accesses > ports
    | None -> false
  in
  if ports_bad then false
  else
    try
      let time_bounds = Df.Dataflow.time_bounds op df in
      let pe_bad =
        match spec.Arch.Spec.pe_regs with
        | None -> false
        | Some cap ->
            exceeds
              ~n_params:(Df.Dataflow.n_space df + Df.Dataflow.n_time df)
              ~assume:
                (Array.of_list (Df.Dataflow.space_bounds op df @ time_bounds))
              ~cap
              (Df.Dataflow.data_assignment op df)
      in
      let chip_bad =
        (not pe_bad)
        &&
        match spec.Arch.Spec.scratchpad_bytes with
        | None -> false
        | Some bytes ->
            let tspace =
              Isl.Space.make "T"
                (List.mapi
                   (fun i _ -> Printf.sprintf "t%d" i)
                   df.Df.Dataflow.time)
            in
            let theta_t =
              Isl.Map.intersect_domain
                (Isl.Map.of_exprs (Ir.Tensor_op.space op) tspace
                   df.Df.Dataflow.time)
                (Ir.Tensor_op.domain op)
            in
            exceeds ~n_params:(Df.Dataflow.n_time df)
              ~assume:(Array.of_list time_bounds)
              ~cap:(bytes / An.Capacity.word_bytes)
              (fun t ->
                Isl.Map.apply_range (Isl.Map.reverse theta_t)
                  (Ir.Tensor_op.access_map op t))
      in
      not (pe_bad || chip_bad)
    with _ -> true

let test_feasible_matches_reference () =
  let base = Arch.Repository.tpu_like ~bandwidth:8 () in
  let specs =
    [
      ("roomy", generous base);
      ("snug", Arch.Spec.with_capacities ~scratchpad_bytes:256 base);
      ("tight", Arch.Spec.with_capacities ~scratchpad_bytes:64 base);
      ( "regs",
        Arch.Spec.with_capacities ~pe_regs:3 ~scratchpad_bytes:1024 base );
      ("ports", Arch.Spec.with_capacities ~pe_ports:3 base);
    ]
  in
  let zoo = zoo_pairs () in
  let groups =
    List.map (fun (op, df) -> (op, [ df; drop_last_time df ])) zoo
    @ mapper_shapes ()
  in
  let counters =
    List.map Obs.counter
      [
        "analysis.feasible_bounded";
        "analysis.feasible_counted";
        "analysis.feasible_resisted";
      ]
  in
  let before = List.map Obs.value counters in
  let pruned = ref 0 in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      List.iter
        (fun (name, spec) ->
          List.iter
            (fun (op, dfs) ->
              let feasible = Option.get (An.Capacity.feasible spec op) in
              List.iter
                (fun df ->
                  let want = reference_feasible spec op df in
                  if not want then incr pruned;
                  check_bool
                    (Printf.sprintf "%s: %s %s" name op.Ir.Tensor_op.name
                       df.Df.Dataflow.name)
                    want (feasible df))
                dfs)
            groups)
        specs);
  let tested =
    List.length specs
    * List.fold_left (fun a (_, dfs) -> a + List.length dfs) 0 groups
  in
  let deltas = List.map2 (fun c b -> Obs.value c - b) counters before in
  check_int "every test bumps one verdict counter" tested
    (List.fold_left ( + ) 0 deltas);
  (* every path is exercised: bounds, certified counts, resisted counts,
     and proofs of infeasibility *)
  List.iter2
    (fun c d ->
      check_bool (c.Obs.c_name ^ " > 0") true (d > 0))
    counters deltas;
  check_bool "some candidates proven infeasible" true (!pruned > 0)

let () =
  Alcotest.run "dse"
    [
      ( "generation",
        [
          Alcotest.test_case "candidate counts" `Quick test_candidate_counts;
          Alcotest.test_case "unique names" `Quick test_unique_names;
        ] );
      ( "search",
        [
          Alcotest.test_case "finds valid" `Quick test_search_finds_tpu_class;
          Alcotest.test_case "expressible subset" `Quick test_expressible_subset;
          Alcotest.test_case "fig6 direction" `Quick test_fig6_direction;
          Alcotest.test_case "invalid dropped" `Quick
            test_invalid_candidates_dropped;
          Alcotest.test_case "objectives" `Quick test_objectives;
        ] );
      ( "mapper",
        [
          Alcotest.test_case "pruned matches oracle" `Quick
            test_pruned_matches_oracle;
          Alcotest.test_case "search_sizes template reuse" `Quick
            test_search_sizes_template_reuse;
          Alcotest.test_case "heuristic finds best" `Quick
            test_heuristic_finds_best;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_search_deterministic_across_jobs;
          Alcotest.test_case "prechecker = precheck" `Quick
            test_prechecker_matches_precheck;
          Alcotest.test_case "stats partition" `Quick test_search_stats_add_up;
          Alcotest.test_case "wide-time candidate invalid" `Quick
            test_wide_time_candidate_invalid;
          Alcotest.test_case "capacity prune = oracle" `Quick
            test_capacity_prune_oracle;
          Alcotest.test_case "capacity prune fires" `Quick
            test_capacity_prune_fires;
          Alcotest.test_case "injectivity certificate sound" `Quick
            test_injective_certificate_sound;
          Alcotest.test_case "capacity tier = counting reference" `Quick
            test_feasible_matches_reference;
        ] );
    ]

(* The oracle suite: every fast path of the engines, checked against a
   slower reference on seeded inputs, in every test run.

   - Rung 1: [Map.card] / [Set.card] against the number of points
     [Map.iter_pairs] / [Set.iter_points] visit, on Θ, its stamps, every
     data assignment, every reuse map ([Volumes.reuse_map] over
     [Spacetime.channels]), their union and their overlap.  A union of
     up to four pieces is counted by inclusion–exclusion and walked
     disjointly, so the one is checked against the other.
   - Rung 2: [Count.count_union_param] over each data assignment and
     reuse map of rung 1 with its stamp coordinates as parameters,
     evaluated at the stamp box's corners, its midpoint and seeded
     interior points, against the count and the walk of the slice with
     those coordinates fixed.
   - Rung 3: [Template.try_instantiate] at seeded sizes against a fresh
     [Concrete.analyze], compared as [Metrics.to_json] bytes.
   - Rung 4: the capacity verdicts against the peaks of
     [Simulator.run ~window:1] on every zoo subject at its own size:
     [Capacity.demand_bound] is at least each peak, capacities at the
     peaks pass [Checker.check] and [Capacity.feasible], and one word
     below a peak is TN014.

   The reference of rungs 1 and 2 is the plain enumeration plan that
   iteration uses.  Rungs 1-3 draw their subjects from the checker's
   zoo and the mapper's candidate lists, resized to seeded small
   extents.  A mismatch is shrunk by halving extents while it persists,
   and the failure names the smallest sizes, the dataflow, the arch and
   both numbers.  The seeds and budgets are fixed, nothing is read from
   the environment, and everything runs on one [Parallel] job, so every
   run checks the same inputs. *)

module Isl = Tenet.Isl
module Ir = Tenet.Ir
module Arch = Tenet.Arch
module Df = Tenet.Dataflow
module M = Tenet.Model
module An = Tenet.Analysis
module Sim = Tenet.Sim
module Dse = Tenet.Dse.Dse
module Json = Tenet.Obs.Json

(* Before any count: one job, and TENET_JOBS is never read. *)
let () = Tenet.Util.Parallel.set_jobs 1
let seeds = [ 1; 2; 3 ]

(* Per seed: zoo subjects and mapper candidates for rungs 1 and 2, and
   subjects for rung 3 (each fits its own templates). *)
let zoo_draws = 4
let candidate_draws = 2
let template_draws = 2

(* Rungs 1 and 2 walk every relation, so their ops stay this small. *)
let max_instances = 1500

(* ------------------------------------------------------------------ *)
(* Subjects and sizes.                                                 *)
(* ------------------------------------------------------------------ *)

let candidates : An.Checker.subject list =
  let gemm = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:16 in
  let conv = Ir.Kernels.conv2d ~nk:16 ~nc:16 ~nox:8 ~noy:8 ~nrx:3 ~nry:3 in
  let on arch kernel op dfs =
    List.map
      (fun df ->
        {
          An.Checker.s_arch = arch;
          s_kernel = kernel;
          s_spec = Arch.Repository.find arch;
          s_op = op;
          s_df = df;
        })
      dfs
  in
  on "tpu-8x8-systolic" "gemm" gemm (Dse.candidates_2d gemm ~p:8)
  @ on "mesh-8x8" "conv" conv (Dse.candidates_2d conv ~p:8)
  @ on "systolic-64x1" "gemm" gemm (Dse.candidates_1d gemm ~p:8)
  @ on "multicast-64" "conv" conv (Dse.candidates_1d conv ~p:8)

let zoo = An.Checker.zoo_subjects ()
let pick st l = List.nth l (Random.State.int st (List.length l))
let names (s : An.Checker.subject) = Ir.Tensor_op.iter_names s.An.Checker.s_op

let resize (s : An.Checker.subject) (ext : int array) : Ir.Tensor_op.t =
  M.Template.shrink_op s.An.Checker.s_op
    (List.combine (names s) (Array.to_list ext))

let n_instances ext = Array.fold_left ( * ) 1 ext

(* Each extent uniform in [1, its size in the subject], then the largest
   halved until the op has at most [max_instances] instances. *)
let small_extents st (s : An.Checker.subject) : int array =
  let ext =
    Array.of_list
      (List.map
         (fun d ->
           let lo, hi = Ir.Tensor_op.iter_bounds s.An.Checker.s_op d in
           1 + Random.State.int st (hi - lo + 1))
         (names s))
  in
  while n_instances ext > max_instances do
    let big = ref 0 in
    Array.iteri (fun i e -> if e > ext.(!big) then big := i) ext;
    ext.(!big) <- ext.(!big) / 2
  done;
  ext

(* ------------------------------------------------------------------ *)
(* Mismatches, shrinking and reporting.                                *)
(* ------------------------------------------------------------------ *)

type mismatch = { what : string; fast : string; reference : string }

let mismatch what fast reference =
  if fast = reference then None
  else
    Some
      { what; fast = string_of_int fast; reference = string_of_int reference }

(* The first mismatch of a list of lazily made comparisons. *)
let rec first = function
  | [] -> None
  | check :: rest -> (
      match check () with Some _ as m -> m | None -> first rest)

(* Halve one extent at a time while the mismatch persists.  The result
   is locally smallest: halving any one extent further loses it.  A
   check that raises on a smaller op does not count as persisting. *)
let rec shrink check ext m =
  let rec try_dim i =
    if i = Array.length ext then (ext, m)
    else if ext.(i) = 1 then try_dim (i + 1)
    else
      let ext' = Array.copy ext in
      ext'.(i) <- ext.(i) / 2;
      match check ext' with
      | Some m' -> shrink check ext' m'
      | None | (exception _) -> try_dim (i + 1)
  in
  try_dim 0

let sizes_text (s : An.Checker.subject) ext =
  String.concat ","
    (List.mapi (fun i d -> Printf.sprintf "%s=%d" d ext.(i)) (names s))

(* Run [check] at [ext]; on a mismatch, shrink it and fail. *)
let expect ~rung (s : An.Checker.subject) check ext =
  match check ext with
  | None -> ()
  | Some m ->
      let ext, m = shrink check ext m in
      Alcotest.failf "%s: %s of %s under %s on %s at %s: fast %s, reference %s"
        rung m.what s.An.Checker.s_kernel s.An.Checker.s_df.Df.Dataflow.name
        s.An.Checker.s_arch (sizes_text s ext) m.fast m.reference

(* Subjects for rungs 1 and 2: per seed, zoo subjects and mapper
   candidates with their seeded small extents. *)
let small_subjects =
  List.concat_map
    (fun seed ->
      let st = Random.State.make [| seed |] in
      List.init (zoo_draws + candidate_draws) (fun i ->
          let s = pick st (if i < zoo_draws then zoo else candidates) in
          (s, small_extents st s)))
    seeds

(* ------------------------------------------------------------------ *)
(* Rung 1: counts against walks.                                       *)
(* ------------------------------------------------------------------ *)

type relation = Map of Isl.Map.t | Set of Isl.Set.t

(* Every relation the volume model counts, by name. *)
let relations (s : An.Checker.subject) (op : Ir.Tensor_op.t) :
    (string * relation) list =
  let df = s.An.Checker.s_df in
  let theta = Df.Dataflow.theta op df in
  let channels = Df.Spacetime.channels s.An.Checker.s_spec op df in
  let per_tensor tensor =
    let assignment = Df.Dataflow.data_assignment op df tensor in
    let reuse kind =
      List.filter_map
        (fun (c : Df.Spacetime.channel) ->
          if c.Df.Spacetime.kind = kind then
            Some (M.Volumes.reuse_map ~assignment ~m:c.Df.Spacetime.m)
          else None)
        channels
      |> Isl.Map.union_all
    in
    let temporal = reuse `Temporal and spatial = reuse `Spatial in
    [
      ("assignment", assignment);
      ("temporal reuse", temporal);
      ("spatial reuse", spatial);
      ("reuse union", Isl.Map.union temporal spatial);
      ("reuse overlap", Isl.Map.intersect temporal spatial);
    ]
    |> List.map (fun (what, m) -> (tensor ^ " " ^ what, Map m))
  in
  [ ("theta", Map theta); ("stamps", Set (Isl.Map.range theta)) ]
  @ List.concat_map per_tensor (Ir.Tensor_op.tensors op)

let walk = function
  | Map m ->
      let n = ref 0 in
      Isl.Map.iter_pairs (fun _ _ -> incr n) m;
      !n
  | Set s ->
      let n = ref 0 in
      Isl.Set.iter_points (fun _ -> incr n) s;
      !n

let card = function Map m -> Isl.Map.card m | Set s -> Isl.Set.card s
let rung1_checks = ref 0

let count_check s ext =
  relations s (resize s ext)
  |> List.map (fun (what, r) () ->
         incr rung1_checks;
         mismatch what (card r) (walk r))
  |> first

let test_counts () =
  List.iter (fun (s, ext) -> expect ~rung:"card" s (count_check s) ext)
    small_subjects;
  Alcotest.(check bool)
    "relations compared" true
    (!rung1_checks >= 200)

(* ------------------------------------------------------------------ *)
(* Rung 2: parametric counts against fixed slices.                     *)
(* ------------------------------------------------------------------ *)

let interior_points = 4
let rung2_evaluations = ref 0
let rung2_resisted = ref 0

(* The corners of [box], its midpoint and seeded interior points. *)
let box_points st (box : (int * int) array) : int array list =
  let n = Array.length box in
  let corners =
    List.init (1 lsl n) (fun c ->
        Array.mapi (fun i (lo, hi) -> if c land (1 lsl i) = 0 then lo else hi)
          box)
  in
  let mid = Array.map (fun (lo, hi) -> (lo + hi) / 2) box in
  let interior =
    List.init interior_points (fun _ ->
        Array.map (fun (lo, hi) -> lo + Random.State.int st (hi - lo + 1)) box)
  in
  corners @ (mid :: interior)

(* The per-stamp count of [m] (a relation from the stamps) at [at]. *)
let stamp_check qp wrapped what at () =
  incr rung2_evaluations;
  let slice = ref wrapped in
  Array.iteri (fun dim v -> slice := Isl.Set.fix ~dim v !slice) at;
  let what =
    Printf.sprintf "%s at stamp (%s)" what
      (String.concat "," (Array.to_list (Array.map string_of_int at)))
  in
  let reference = walk (Set !slice) in
  first
    [
      (fun () ->
        mismatch ("per-stamp " ^ what)
          (Isl.Qpoly.eval (fun p -> at.(p)) qp)
          reference);
      (fun () ->
        mismatch ("slice card of " ^ what) (Isl.Set.card !slice) reference);
    ]

(* Rung 2 counts each tensor's assignment and its reuse union: the
   union's inclusion–exclusion terms are the temporal and spatial reuse
   maps and their overlap. *)
let is_stamp_relation what =
  List.exists
    (fun suffix -> String.ends_with ~suffix what)
    [ " assignment"; " reuse union" ]

let param_check seed (s : An.Checker.subject) ext =
  let op = resize s ext and df = s.An.Checker.s_df in
  let box =
    Array.of_list
      (Df.Dataflow.space_bounds op df @ Df.Dataflow.time_bounds op df)
  in
  relations s op
  |> List.filter_map (function
       | what, Map m when is_stamp_relation what -> Some (what, m)
       | _ -> None)
  |> List.map (fun (what, m) () ->
         let wrapped = Isl.Map.wrap m in
         match
           Isl.Count.count_union_param ~n_params:(Array.length box)
             ~assume:box (Isl.Set.disjuncts wrapped)
         with
         | None ->
             incr rung2_resisted;
             None
         | Some qp ->
             let st = Random.State.make [| seed; Hashtbl.hash what |] in
             first (List.map (stamp_check qp wrapped what) (box_points st box)))
  |> first

let test_param_counts () =
  List.iteri
    (fun i (s, ext) -> expect ~rung:"parametric count" s (param_check i s) ext)
    small_subjects;
  Alcotest.(check bool)
    "parametric counts evaluated" true
    (!rung2_evaluations >= 500)

(* ------------------------------------------------------------------ *)
(* Rung 3: templates against fresh concrete analyses.                  *)
(* ------------------------------------------------------------------ *)

(* The first field where two JSON values differ, with both values. *)
let rec json_diff path (a : Json.t) (b : Json.t) : mismatch option =
  match (a, b) with
  | Json.Obj fa, Json.Obj fb when List.map fst fa = List.map fst fb ->
      first
        (List.map2
           (fun (k, x) (_, y) () -> json_diff (path ^ "." ^ k) x y)
           fa fb)
  | Json.List la, Json.List lb when List.length la = List.length lb ->
      first
        (List.mapi
           (fun i (x, y) () -> json_diff (Printf.sprintf "%s[%d]" path i) x y)
           (List.combine la lb))
  | _ ->
      let fast = Json.to_string a and reference = Json.to_string b in
      if fast = reference then None
      else Some { what = "metrics" ^ path; fast; reference }

let rung3_instantiated = ref 0
let rung3_refused = ref 0

(* [base] with each of [params] at a seeded size from 2 to 6 periods of
   its tiling (4 when untiled): no class floor is below 2 periods. *)
let with_param_sizes st (s : An.Checker.subject) params base : int array =
  Array.of_list
    (List.mapi
       (fun i d ->
         if List.mem d params then
           let p =
             Option.value ~default:4 (M.Template.period_of s.An.Checker.s_df d)
           in
           (2 * p) + Random.State.int st ((4 * p) + 1)
         else base.(i))
       (names s))

(* One template per subject, parameter list and non-parameter extents,
   so the draws of one subject share its fitted classes. *)
let templates = Hashtbl.create 16

let template_check params (s : An.Checker.subject) ext =
  let op = resize s ext in
  let spec = s.An.Checker.s_spec and df = s.An.Checker.s_df in
  let sizes, fixed =
    List.partition
      (fun (d, _) -> List.mem d params)
      (List.combine (names s) (Array.to_list ext))
  in
  let key =
    (s.An.Checker.s_arch, s.An.Checker.s_kernel, df.Df.Dataflow.name, fixed)
  in
  let tpl =
    match Hashtbl.find_opt templates key with
    | Some t -> t
    | None ->
        let t = M.Template.compile spec op df ~params in
        Hashtbl.add templates key t;
        t
  in
  match M.Template.try_instantiate tpl ~sizes with
  | None ->
      incr rung3_refused;
      None
  | exception M.Concrete.Invalid_dataflow msg -> (
      incr rung3_refused;
      (* the gate must refuse what the concrete engine refuses, with
         its text *)
      let fast = "invalid dataflow: " ^ msg in
      match M.Concrete.analyze spec op df with
      | _ -> Some { what = "validity"; fast; reference = "metrics" }
      | exception M.Concrete.Invalid_dataflow msg' ->
          if String.equal msg msg' then None
          else
            Some
              {
                what = "validity";
                fast;
                reference = "invalid dataflow: " ^ msg';
              })
  | Some fast -> (
      incr rung3_instantiated;
      let fast = M.Metrics.to_json fast in
      match M.Concrete.analyze spec op df with
      | reference -> json_diff "" fast (M.Metrics.to_json reference)
      | exception M.Concrete.Invalid_dataflow msg ->
          Some
            {
              what = "validity";
              fast = "metrics";
              reference = "invalid dataflow: " ^ msg;
            })

let test_templates () =
  List.iter
    (fun seed ->
      let st = Random.State.make [| seed; 3 |] in
      for _ = 1 to template_draws do
        let s = pick st zoo in
        let dims = names s in
        let d = pick st dims in
        let params =
          if Random.State.bool st then [ d ]
          else [ d; pick st (List.filter (( <> ) d) dims) ]
        in
        let base = Array.map (min 4) (small_extents st s) in
        for _ = 1 to 3 do
          expect ~rung:"template" s (template_check params s)
            (with_param_sizes st s params base)
        done
      done)
    seeds;
  Alcotest.(check bool)
    "templates instantiated" true
    (!rung3_instantiated >= 6)

(* ------------------------------------------------------------------ *)
(* Rung 4: capacity verdicts against the simulator's peaks.            *)
(* ------------------------------------------------------------------ *)

(* A window-1 run needs [pe_live] registers per PE and [chip_live]
   words on chip.  The count-free demand bounds are never below those
   peaks.  With exactly those capacities the checker reports no TN014
   and the mapper's pruner keeps the dataflow, so the pruner never
   drops a feasible candidate; one word below either peak the checker
   reports TN014.  Most of these verdicts are settled by the symbolic
   tier; the rest run the simulator again. *)
let test_peaks () =
  Alcotest.(check bool) "every zoo subject" true (List.length zoo >= 70);
  let below = ref 0 in
  List.iter
    (fun (s : An.Checker.subject) ->
      let spec = s.An.Checker.s_spec
      and op = s.An.Checker.s_op
      and df = s.An.Checker.s_df in
      let { Sim.Simulator.pe_live; chip_live; _ } =
        (Sim.Simulator.run ~window:1 spec op df).Sim.Simulator.peaks
      in
      let bytes words = words * An.Capacity.word_bytes in
      let tn014 spec =
        List.exists
          (fun d -> d.An.Diagnostic.code = "TN014")
          (An.Checker.check spec op df)
      in
      let expect what ok =
        if not ok then
          Alcotest.failf
            "capacity: %s for %s under %s on %s (simulator peaks: %d per \
             PE, %d on chip)"
            what s.An.Checker.s_kernel df.Df.Dataflow.name s.An.Checker.s_arch
            pe_live chip_live
      in
      let bound = An.Capacity.demand_bound op in
      expect "chip bound below the on-chip peak"
        (bound df.Df.Dataflow.time >= chip_live);
      expect "per-PE bound below the per-PE peak"
        (bound (df.Df.Dataflow.space @ df.Df.Dataflow.time) >= pe_live);
      let at_peaks =
        Arch.Spec.with_capacities ~pe_regs:pe_live
          ~scratchpad_bytes:(bytes chip_live) spec
      in
      expect "TN014 at the peaks" (not (tn014 at_peaks));
      expect "pruned at the peaks"
        (Option.get (An.Capacity.feasible at_peaks op) df);
      if pe_live > 1 then begin
        incr below;
        expect "no TN014 one register below the per-PE peak"
          (tn014 (Arch.Spec.with_capacities ~pe_regs:(pe_live - 1) spec))
      end;
      if chip_live > 1 then begin
        incr below;
        expect "no TN014 one word below the on-chip peak"
          (tn014
             (Arch.Spec.with_capacities
                ~scratchpad_bytes:(bytes (chip_live - 1))
                spec))
      end)
    zoo;
  Alcotest.(check bool)
    "checked below the peaks" true
    (!below >= List.length zoo)

let () =
  Alcotest.run "oracle"
    [
      ( "oracle",
        [
          Alcotest.test_case "card = walk" `Quick test_counts;
          Alcotest.test_case "parametric count = slice" `Quick
            test_param_counts;
          Alcotest.test_case "template = concrete" `Quick test_templates;
          Alcotest.test_case "sim peaks = capacity peaks" `Quick test_peaks;
        ] );
    ]

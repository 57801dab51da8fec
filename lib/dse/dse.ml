(* Design-space exploration (paper Sections IV-A and VI-B).

   The candidate generator follows the paper's pruning: pick the loop dims
   distributed over the PE array (the data-movement choice), tile them by
   the array width, order the remaining dims in time, and optionally skew
   the innermost time dimension by the space dims (the boundary data
   assignment choice).

   Evaluation is a search engine rather than an enumerator: candidates
   share one reusable evaluation context (compiled access chains,
   predecessor memos, per-architecture state), and [search] layers three
   pruning tiers on top — the checker's precheck, symmetry classes, and
   objective dominance bounds — plus a budgeted heuristic mode, all
   deterministic at any [--jobs].  [search ~mode:Exhaustive] is the
   exhaustive oracle: it scores every candidate the prefilter keeps. *)

module Aff = Tenet_isl.Aff
module Ir = Tenet_ir
module Arch = Tenet_arch
module Df = Tenet_dataflow
module M = Tenet_model
module Obs = Tenet_obs

let c_evaluated = Obs.counter "dse.candidates_evaluated"
let c_valid = Obs.counter "dse.candidates_valid"
let c_invalid = Obs.counter "dse.candidates_invalid"
let c_pruned_precheck = Obs.counter "dse.pruned_precheck"
let c_pruned_symmetry = Obs.counter "dse.pruned_symmetry"
let c_pruned_dominated = Obs.counter "dse.pruned_dominated"
let c_pruned_capacity = Obs.counter "dse.pruned_capacity"
let c_template_reuse = Obs.counter "dse.template_reuse"

(* ------------------------------------------------------------------ *)
(* Design-space sizes (Section IV-A).                                  *)
(* ------------------------------------------------------------------ *)

(* Relation-centric: any n x n 0/1 transformation matrix. *)
let tenet_design_space_size ~n_loops =
  Tenet_util.Int_math.pow 2 (n_loops * n_loops)

(* Data-centric: n! orders, exactly two SpatialMaps. *)
let maestro_design_space_size ~n_loops =
  Tenet_maestro.Notation.design_space_size ~n_loops ~n_spatial:2

(* ------------------------------------------------------------------ *)
(* Candidate generation.                                               *)
(* ------------------------------------------------------------------ *)

(* A dataflow is expressible in the data-centric notation iff no stamp
   coordinate needs an affine combination: every time coordinate maps a
   single loop dim and every space coordinate at most two (the Cluster
   idiom).  This classifies Table III exactly. *)
let data_centric_expressible (df : Df.Dataflow.t) : bool =
  let nvars e =
    List.length (List.sort_uniq String.compare (Aff.free_vars e))
  in
  List.for_all (fun e -> nvars e <= 2) df.Df.Dataflow.space
  && List.for_all (fun e -> nvars e <= 1) df.Df.Dataflow.time

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> not (String.equal x y)) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

let v = Aff.var

(* 2D candidates: space = (da mod p, db mod p); time = outer dims, the two
   tile counters, then the innermost dim [dc], optionally skewed by the
   space stamps.  [permute_outer] additionally enumerates the orderings of
   the outer sequential dims (larger space, as in the Section VI-B count). *)
let candidates_2d ?(permute_outer = false) (op : Ir.Tensor_op.t) ~p :
    Df.Dataflow.t list =
  let dims = Ir.Tensor_op.iter_names op in
  let pairs =
    List.concat_map
      (fun da ->
        List.filter_map
          (fun db -> if String.equal da db then None else Some (da, db))
          dims)
      dims
  in
  List.concat_map
    (fun (da, db) ->
      let others =
        List.filter (fun d -> not (String.equal d da || String.equal d db)) dims
      in
      List.concat_map
        (fun dc ->
          let outer = List.filter (fun d -> not (String.equal d dc)) others in
          let outer_orders =
            if permute_outer then permutations outer else [ outer ]
          in
          List.concat_map
            (fun outer ->
              let base_time =
                List.map v outer
                @ [ Aff.Fdiv (v da, p); Aff.Fdiv (v db, p) ]
              in
              let name skew =
                Printf.sprintf "(%s%s-P | %s%s-T%s)" da db
                  (if permute_outer then "," ^ String.concat "" outer else "")
                  dc
                  (if skew then "+skew" else "")
              in
              [
                Df.Dataflow.make ~name:(name false)
                  ~space:[ Aff.Mod (v da, p); Aff.Mod (v db, p) ]
                  ~time:(base_time @ [ v dc ]);
                Df.Dataflow.make ~name:(name true)
                  ~space:[ Aff.Mod (v da, p); Aff.Mod (v db, p) ]
                  ~time:
                    (base_time
                    @ [
                        Aff.Add
                          ( Aff.Add (Aff.Mod (v da, p), Aff.Mod (v db, p)),
                            v dc );
                      ]);
              ])
            outer_orders)
        others)
    pairs

(* 1D candidates: space = da mod p; time = outer dims + tile + innermost. *)
let candidates_1d (op : Ir.Tensor_op.t) ~p : Df.Dataflow.t list =
  let dims = Ir.Tensor_op.iter_names op in
  List.concat_map
    (fun da ->
      let others = List.filter (fun d -> not (String.equal d da)) dims in
      List.map
        (fun dc ->
          let outer = List.filter (fun d -> not (String.equal d dc)) others in
          Df.Dataflow.make
            ~name:(Printf.sprintf "(%s-P | %s-T)" da dc)
            ~space:[ Aff.Mod (v da, p) ]
            ~time:(List.map v outer @ [ Aff.Fdiv (v da, p); v dc ]))
        others)
    dims

(* ------------------------------------------------------------------ *)
(* Symmetry classes.                                                   *)
(* ------------------------------------------------------------------ *)

(* Canonical rendering for symmetry keys.  Integer [+] is commutative
   and associative, so [Add] chains are flattened and their operand
   renderings sorted: the generator's skewed inner stamps for the (da,
   db) and (db, da) movement pairs then render identically, as they
   evaluate identically. *)
let rec norm_string (e : Aff.t) : string =
  match e with
  | Aff.Add (a, b) ->
      let rec flat e acc =
        match e with
        | Aff.Add (x, y) -> flat x (flat y acc)
        | e -> norm_string e :: acc
      in
      let parts = List.sort String.compare (flat a (flat b [])) in
      "(" ^ String.concat " + " parts ^ ")"
  | Aff.Sub (a, b) -> "(" ^ norm_string a ^ " - " ^ norm_string b ^ ")"
  | Aff.Mul (a, b) -> "(" ^ norm_string a ^ " * " ^ norm_string b ^ ")"
  | Aff.Neg a -> "(- " ^ norm_string a ^ ")"
  | Aff.Fdiv (a, d) -> "fl(" ^ norm_string a ^ "/" ^ string_of_int d ^ ")"
  | Aff.Mod (a, d) -> "(" ^ norm_string a ^ " % " ^ string_of_int d ^ ")"
  | Aff.Abs a -> "abs(" ^ norm_string a ^ ")"
  | Aff.Var x -> x
  | Aff.Int i -> string_of_int i

(* Whether the interconnect's predecessor relation commutes with
   transposing a square 2D array: pred(transpose dst) = transpose (pred
   dst) for every PE.  Decided from the same [pred_pe_keys] memo the
   walk uses, so it is exact for any topology, including [Custom]. *)
let transpose_invariant (spec : Arch.Spec.t) : bool =
  let dims = Arch.Pe_array.dims spec.Arch.Spec.pe in
  Array.length dims = 2
  && dims.(0) = dims.(1)
  &&
  let n = dims.(0) in
  let preds = M.Concrete.pred_pe_keys spec in
  let tr k = if k < 0 then k else ((k mod n) * n) + (k / n) in
  try
    Array.iteri
      (fun dst ps ->
        let a = List.sort_uniq compare (List.rev_map tr ps) in
        let b = List.sort_uniq compare preds.(tr dst) in
        if a <> b then raise Exit)
      preds;
    true
  with Exit -> false

(* Symmetry key under [`Inner_step] adjacency: two candidates with the
   same space tuple, the same multiset of non-innermost time coordinates
   and the same innermost coordinate produce byte-identical metrics —
   permuting the time prefix only relabels the outer blocks, and every
   reuse condition is confined to one block ([same_outer]).  When the
   array is square and the interconnect is transpose-invariant, swapping
   the two space coordinates is a further metric-preserving bijection,
   so the key is the minimum over both orientations. *)
let sym_key ~transpose_ok (df : Df.Dataflow.t) : string =
  let prefix, inner =
    match List.rev df.Df.Dataflow.time with
    | [] -> ([], "")
    | last :: rev_prefix ->
        ( List.sort String.compare (List.map norm_string rev_prefix),
          norm_string last )
  in
  let render space =
    String.concat "|" (List.map norm_string space)
    ^ " ;; " ^ String.concat "|" prefix ^ " ;; " ^ inner
  in
  let k = render df.Df.Dataflow.space in
  match df.Df.Dataflow.space with
  | [ a; b ] when transpose_ok ->
      let k' = render [ b; a ] in
      if String.compare k' k < 0 then k' else k
  | _ -> k

(* ------------------------------------------------------------------ *)
(* Evaluation.                                                         *)
(* ------------------------------------------------------------------ *)

type objective = Latency | Energy | Sbw

let score objective (m : M.Metrics.t) =
  match objective with
  | Latency -> m.M.Metrics.latency
  | Energy -> m.M.Metrics.energy
  | Sbw -> m.M.Metrics.sbw

type outcome = {
  dataflow : Df.Dataflow.t;
  metrics : M.Metrics.t;
  expressible : bool; (* in the data-centric notation *)
}

(* Score one candidate against the shared context. *)
let eval_candidate (ctx : M.Concrete.ctx) (df : Df.Dataflow.t) :
    outcome option =
  Obs.with_span ~args:[ ("dataflow", df.Df.Dataflow.name) ] "dse.candidate"
  @@ fun () ->
  Obs.incr c_evaluated;
  match M.Concrete.analyze_in ctx df with
  | m ->
      Obs.incr c_valid;
      Some
        {
          dataflow = df;
          metrics = m;
          expressible = data_centric_expressible df;
        }
  | exception M.Concrete.Invalid_dataflow _ ->
      Obs.incr c_invalid;
      None

(* ------------------------------------------------------------------ *)
(* Search.                                                             *)
(* ------------------------------------------------------------------ *)

type mode = Exhaustive | Pruned | Heuristic

type stats = {
  generated : int;
  pruned_precheck : int;
  pruned_symmetry : int;
  pruned_capacity : int;
  pruned_dominated : int;
  evaluated : int;
  template_reuse : int;
}

type result = { outcomes : outcome list; stats : stats }

(* Reps are scored in fixed-size slices so pruning can consult the
   incumbent scores: decisions inside a slice use the incumbents frozen
   at its start, and incumbents are refreshed sequentially between
   slices, so the result is independent of how the pool schedules the
   slice.  The size is a constant — tying it to the job count would make
   prune decisions depend on [--jobs]. *)
let eval_slice = 32

(* xorshift64*: deterministic generator for the heuristic visit order. *)
let xorshift (s : int) : int =
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) in
  s land max_int

let search ?(adjacency = `Inner_step) ?(mode = Pruned) ?budget ?(seed = 0)
    ?prefilter ?(objective = Latency) (spec : Arch.Spec.t)
    (op : Ir.Tensor_op.t) (cands : Df.Dataflow.t list) : result =
  Obs.with_span "dse.search" @@ fun () ->
  let generated = List.length cands in
  let ctx = M.Concrete.context ~adjacency spec op in
  let n_precheck = ref 0 in
  (* Tier 1 (hard): the caller's prefilter, then the checker's staged
     precheck — both reject only candidates the full analysis would
     refuse (unknown iterators, rank or interval-bound violations). *)
  let keep =
    let pre = match prefilter with None -> fun _ -> true | Some k -> k in
    match mode with
    | Exhaustive -> pre
    | Pruned | Heuristic ->
        let pc = Tenet_analysis.Checker.prechecker spec op in
        fun df -> pre df && pc df
  in
  let live =
    List.mapi (fun i df -> (i, df)) cands
    |> List.filter (fun (_, df) ->
           let ok = keep df in
           if not ok then begin
             incr n_precheck;
             Obs.incr c_pruned_precheck
           end;
           ok)
  in
  (* Tier 1.5: resource feasibility.  Candidates the declared
     capacities provably cannot host are rejected before any scoring;
     the predicate errs toward keeping (only proofs prune), so the
     surviving ranking matches the unpruned oracle on every feasible
     candidate.  No-op when the spec declares no capacities. *)
  let n_capacity = ref 0 in
  let live =
    if mode = Exhaustive || not (Arch.Spec.has_capacities spec) then live
    else
      Obs.with_span "analysis.capacity_tier" @@ fun () ->
      match Tenet_analysis.Capacity.feasible spec op with
      | None -> live
      | Some feasible ->
          List.filter
            (fun (_, df) ->
              let ok = feasible df in
              if not ok then begin
                incr n_capacity;
                Obs.incr c_pruned_capacity
              end;
              ok)
            live
  in
  (* Tier 2: symmetry classes.  The metric-equality arguments behind
     [sym_key] hold under [`Inner_step] adjacency only, so grouping is
     disabled otherwise (and in exhaustive mode). *)
  let n_symmetry = ref 0 in
  let groups : (int * Df.Dataflow.t * (int * Df.Dataflow.t) list) list =
    if mode = Exhaustive || adjacency <> `Inner_step then
      List.map (fun (i, df) -> (i, df, [])) live
    else begin
      let transpose_ok = transpose_invariant spec in
      let tbl : (string, int) Hashtbl.t = Hashtbl.create 256 in
      let reps = ref [] and twins = Hashtbl.create 256 in
      List.iteri
        (fun pos (i, df) ->
          let k = sym_key ~transpose_ok df in
          match Hashtbl.find_opt tbl k with
          | None ->
              Hashtbl.add tbl k pos;
              reps := (i, df) :: !reps
          | Some rep_pos ->
              incr n_symmetry;
              Obs.incr c_pruned_symmetry;
              Hashtbl.replace twins rep_pos
                ((i, df)
                :: (try Hashtbl.find twins rep_pos with Not_found -> [])))
        live;
      List.rev_map
        (fun (i, df) ->
          let pos = Hashtbl.find tbl (sym_key ~transpose_ok df) in
          ( i,
            df,
            List.rev (try Hashtbl.find twins pos with Not_found -> []) ))
        !reps
    end
  in
  (* Tier 3 bound: every (space, time) stamp of a valid mapping holds at
     most one instance, so n_timestamps >= ceil(instances / space
     cardinality) and latency >= n_timestamps.  Exact only as a lower
     bound, free to compute, and only meaningful for the latency
     objective. *)
  let ienv name = Ir.Tensor_op.iter_bounds op name in
  let n_inst = Ir.Tensor_op.n_instances op in
  let lower_bound (df : Df.Dataflow.t) : int =
    if objective <> Latency then 0
    else begin
      let card =
        List.fold_left
          (fun acc e ->
            let lo, hi = Aff.interval ienv e in
            acc * (hi - lo + 1))
          1 df.Df.Dataflow.space
      in
      if card <= 0 then 0 else (n_inst + card - 1) / card
    end
  in
  let reps =
    Array.of_list
      (List.map
         (fun (i, df, tw) ->
           (i, df, tw, lower_bound df, data_centric_expressible df))
         groups)
  in
  (* Visit order: best lower bound first (ties by generator order), so
     the incumbent tightens as early as possible.  The heuristic mode
     additionally interleaves seeded jumps into the unexplored tail, so
     a misleading bound ordering cannot starve whole regions within the
     evaluation budget. *)
  Array.sort
    (fun (i, _, _, la, _) (j, _, _, lb, _) -> compare (la, i) (lb, j))
    reps;
  let reps =
    if mode <> Heuristic then reps
    else begin
      let n = Array.length reps in
      let order = Array.init n Fun.id in
      let s = ref (xorshift (seed + 0x9e3779b9)) in
      (* every 4th visit is a seeded pick from the tail *)
      for k = 0 to n - 1 do
        if k mod 4 = 3 && k + 1 < n then begin
          s := xorshift !s;
          let j = k + 1 + (!s mod (n - k - 1)) in
          let t = order.(k) in
          order.(k) <- order.(j);
          order.(j) <- t
        end
      done;
      Array.map (fun idx -> reps.(idx)) order
    end
  in
  let budget =
    match (mode, budget) with
    | Heuristic, Some b -> max 1 b
    | Heuristic, None -> max 1 (generated / 4)
    | (Exhaustive | Pruned), _ -> max_int
  in
  let n_dominated = ref 0 and n_evaluated = ref 0 in
  let inc_best = ref infinity and inc_expr = ref infinity in
  let collected : (int * outcome) list ref = ref [] in
  let n_reps = Array.length reps in
  let pos = ref 0 in
  while !pos < n_reps && !n_evaluated < budget do
    let len = min eval_slice (min (n_reps - !pos) (budget - !n_evaluated)) in
    let slice = Array.sub reps !pos len in
    pos := !pos + len;
    let frozen_best = !inc_best and frozen_expr = !inc_expr in
    (* A class is dominated when its latency lower bound strictly
       exceeds the incumbent best — and, if the class is data-centric
       expressible, also the expressible incumbent, so the Figure 6
       baseline can never be pruned away. *)
    let dominated ~expr lb =
      mode <> Exhaustive && objective = Latency
      && float_of_int lb > frozen_best
      && ((not expr) || float_of_int lb > frozen_expr)
    in
    let outs =
      Tenet_util.Parallel.map_array ~chunk:2
        (fun (_, df, _, lb, expr) ->
          if dominated ~expr lb then `Dominated
          else if
            (* Tier 3b: the same bound with the exact timestamp count
               from a cheap time-only pass; only once an incumbent
               exists, otherwise the profile cannot prune anything.  A
               conflict, or a profile refusing the dataflow (its time
               codes would pass the int range), makes it invalid. *)
            mode <> Exhaustive && objective = Latency
            && frozen_best < infinity
          then begin
            match M.Concrete.time_profile ctx df with
            | exception M.Concrete.Invalid_dataflow _
            | { M.Concrete.p_conflict = true; _ } ->
                Obs.incr c_invalid;
                `Invalid
            | p when dominated ~expr p.M.Concrete.p_timestamps -> `Dominated
            | _ -> (
                match eval_candidate ctx df with
                | Some o -> `Outcome o
                | None -> `Invalid)
          end
          else
            match eval_candidate ctx df with
            | Some o -> `Outcome o
            | None -> `Invalid)
        slice
    in
    (* Sequential commit, in slice order: refresh incumbents, count
       prunes, and materialize each class's twins from its rep. *)
    Array.iteri
      (fun k out ->
        let i, _, twins, _, _ = slice.(k) in
        match out with
        | `Dominated ->
            (* the class's twins are already accounted under symmetry *)
            incr n_dominated;
            Obs.incr c_pruned_dominated
        | `Invalid -> incr n_evaluated
        | `Outcome o ->
            incr n_evaluated;
            let s = score objective o.metrics in
            if s < !inc_best then inc_best := s;
            if o.expressible && s < !inc_expr then inc_expr := s;
            collected := (i, o) :: !collected;
            List.iter
              (fun (ti, tdf) ->
                let tm =
                  {
                    o.metrics with
                    M.Metrics.dataflow = tdf.Df.Dataflow.name;
                  }
                in
                collected :=
                  ( ti,
                    {
                      dataflow = tdf;
                      metrics = tm;
                      expressible = o.expressible;
                    } )
                  :: !collected)
              twins)
      outs
  done;
  let outcomes =
    List.map snd
      (List.sort
         (fun (i, a) (j, b) ->
           match
             Float.compare (score objective a.metrics)
               (score objective b.metrics)
           with
           | 0 -> compare i j
           | c -> c)
         !collected)
  in
  {
    outcomes;
    stats =
      {
        generated;
        pruned_precheck = !n_precheck;
        pruned_symmetry = !n_symmetry;
        pruned_capacity = !n_capacity;
        pruned_dominated = !n_dominated;
        evaluated = !n_evaluated;
        template_reuse = 0;
      };
  }

(* ------------------------------------------------------------------ *)
(* Size sweeps.                                                        *)
(* ------------------------------------------------------------------ *)

(* [search_sizes] amortizes a sweep across problem sizes: candidates are
   searched in full at the first size only; the survivors are then
   re-scored at every other size through one parametric metric template
   per candidate ({!Tenet_model.Template}), compiled once and
   instantiated per size in O(1).  Sizes or candidates a template
   refuses fall back to a full concrete evaluation, so the results are
   exactly what a fresh per-size search over the same candidates would
   produce. *)
let search_sizes ?(adjacency = `Inner_step) ?(mode = Pruned) ?budget ?seed
    ?prefilter ?(objective = Latency) ?(top = 8) (spec : Arch.Spec.t)
    (op : Ir.Tensor_op.t) (cands : Df.Dataflow.t list)
    ~(sizes : (string * int) list list) :
    ((string * int) list * result) list =
  match sizes with
  | [] -> []
  | first :: rest ->
      Obs.with_span "dse.search_sizes" @@ fun () ->
      let op0 = M.Template.shrink_op op first in
      let base =
        search ~adjacency ~mode ?budget ?seed ?prefilter ~objective spec op0
          cands
      in
      let dims = List.map fst first in
      let rec take n = function
        | x :: tl when n > 0 -> x :: take (n - 1) tl
        | _ -> []
      in
      let survivors = take top base.outcomes in
      (* one template per surviving candidate, shared by all sizes *)
      let tpls =
        List.map
          (fun (o : outcome) ->
            let tpl =
              try
                Some
                  (M.Template.compile ~adjacency spec op o.dataflow
                     ~params:dims)
              with Invalid_argument _ -> None
            in
            (o, tpl))
          survivors
      in
      let at_size (sz : (string * int) list) : result =
        let n_reuse = ref 0 and n_eval = ref 0 and n_invalid = ref 0 in
        let opn = M.Template.shrink_op op sz in
        let outs =
          List.concat_map
            (fun ((o : outcome), tpl) ->
              let via_template =
                match tpl with
                | None -> None
                | Some tpl -> (
                    (* a size the gate refuses is refused again, and
                       counted, by the concrete evaluation below *)
                    try M.Template.try_instantiate tpl ~sizes:sz
                    with Invalid_argument _ | M.Concrete.Invalid_dataflow _ ->
                      None)
              in
              match via_template with
              | Some m ->
                  incr n_reuse;
                  Obs.incr c_template_reuse;
                  [ { o with metrics = m } ]
              | None -> (
                  incr n_eval;
                  Obs.incr c_evaluated;
                  match
                    M.Concrete.analyze ~adjacency spec opn o.dataflow
                  with
                  | m ->
                      Obs.incr c_valid;
                      [ { o with metrics = m } ]
                  | exception M.Concrete.Invalid_dataflow _ ->
                      Obs.incr c_invalid;
                      incr n_invalid;
                      []))
            tpls
        in
        let indexed = List.mapi (fun i o -> (i, o)) outs in
        let outcomes =
          List.map snd
            (List.sort
               (fun (i, a) (j, b) ->
                 match
                   Float.compare (score objective a.metrics)
                     (score objective b.metrics)
                 with
                 | 0 -> compare i j
                 | c -> c)
               indexed)
        in
        {
          outcomes;
          stats =
            {
              generated = List.length survivors;
              pruned_precheck = !n_invalid;
              pruned_symmetry = 0;
              pruned_capacity = 0;
              pruned_dominated = 0;
              evaluated = !n_eval;
              template_reuse = !n_reuse;
            };
        }
      in
      (first, base) :: List.map (fun sz -> (sz, at_size sz)) rest

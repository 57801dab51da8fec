(* Resource-feasibility diagnostics (TN014-TN018) and the
   no-capacities lint (TN019).

   A dataflow that passes the structural checks (rank, containment,
   injectivity, causality) can still be unbuildable: the working set may
   not fit the register files or the scratchpad, a wire may have to
   carry two values in the same cycle, a PE may demand more operands
   than it has ports.  This module decides those questions with the same
   two-tier strategy as the performance model:

   - symbolically where possible: a count-free per-stamp bound
     ([demand_bound]) that fits settles a capacity at once; otherwise
     per-stamp demand is a cardinality of the data-assignment relation
     [A = Θ⁻¹ . A_{S,F}] with the stamp coordinates as free parameters
     ({!Tenet_isl.Count.count_union_param}), and [Qpoly.prove_ge]
     certifies the capacity bound for *every* stamp at once — exact for
     all sizes, O(1) per query ([analysis.capacity_exact]);

   - on the machine otherwise: a window-1 run of
     [Tenet_sim.Simulator.run], whose peak probes give each demand with
     the earliest stamp (and lex-least PE or edge) reaching it as
     witness ([analysis.capacity_fallback]).  The oracle suite
     (test/test_oracle.ml) checks on every zoo subject that the
     symbolic tier accepts capacities at the simulator's peaks and this
     check refuses them one word below. *)

module Isl = Tenet_isl
module Ir = Tenet_ir
module Arch = Tenet_arch
module Df = Tenet_dataflow
module Obs = Tenet_obs
module Sim = Tenet_sim.Simulator
module D = Diagnostic

let c_exact = Obs.counter "analysis.capacity_exact"
let c_fallback = Obs.counter "analysis.capacity_fallback"
let c_bounded = Obs.counter "analysis.feasible_bounded"
let c_counted = Obs.counter "analysis.feasible_counted"
let c_resisted = Obs.counter "analysis.feasible_resisted"

(* Scratchpad capacity is declared in bytes; demand is counted in
   elements.  One element = one word of this many bytes. *)
let word_bytes = 4

(* ------------------------------------------------------------------ *)
(* Symbolic per-stamp demand.                                          *)
(* ------------------------------------------------------------------ *)

(* Σ of the per-tensor counts, stopping at the first tensor whose count
   resists: one [None] already makes the sum [None]. *)
let sum_counts (count : string -> Isl.Qpoly.t option) (op : Ir.Tensor_op.t) :
    Isl.Qpoly.t option =
  let rec go acc = function
    | [] -> Some acc
    | tensor :: rest -> (
        match count tensor with
        | Some q -> go (Isl.Qpoly.add acc q) rest
        | None -> None)
  in
  go Isl.Qpoly.zero (Ir.Tensor_op.tensors op)

(* Σ over tensors of card { f | (p.., t..) -> f ∈ A_{D,F} }, as a
   quasi-polynomial in the r+m stamp coordinates: the number of distinct
   elements one PE touches in one stamp.  [None] when a tensor's
   relation resists the parametric planner; the later tensors are then
   not counted. *)
let pe_demand (op : Ir.Tensor_op.t) (df : Df.Dataflow.t) :
    (Isl.Qpoly.t * (int * int) array) option =
  let n_params = Df.Dataflow.n_space df + Df.Dataflow.n_time df in
  let assume =
    Array.of_list (Df.Dataflow.space_bounds op df @ Df.Dataflow.time_bounds op df)
  in
  sum_counts
    (fun tensor ->
      let a = Df.Dataflow.data_assignment op df tensor in
      Isl.Count.count_union_param ~n_params ~assume
        (Isl.Set.disjuncts (Isl.Map.wrap a)))
    op
  |> Option.map (fun q -> (q, assume))

(* Σ over tensors of card { f | (t..) -> f }: the number of distinct
   elements live anywhere on the chip in one stamp, as a
   quasi-polynomial in the m time coordinates. *)
let chip_demand (op : Ir.Tensor_op.t) (df : Df.Dataflow.t) :
    (Isl.Qpoly.t * (int * int) array) option =
  let m = Df.Dataflow.n_time df in
  let assume = Array.of_list (Df.Dataflow.time_bounds op df) in
  let tspace =
    Isl.Space.make "T"
      (List.mapi (fun i _ -> Printf.sprintf "t%d" i) df.Df.Dataflow.time)
  in
  let theta_t =
    Isl.Map.intersect_domain
      (Isl.Map.of_exprs (Ir.Tensor_op.space op) tspace df.Df.Dataflow.time)
      (Ir.Tensor_op.domain op)
  in
  sum_counts
    (fun tensor ->
      let a =
        Isl.Map.apply_range
          (Isl.Map.reverse theta_t)
          (Ir.Tensor_op.access_map op tensor)
      in
      Isl.Count.count_union_param ~n_params:m ~assume
        (Isl.Set.disjuncts (Isl.Map.wrap a)))
    op
  |> Option.map (fun q -> (q, assume))

let env_of (bounds : (int * int) array) (i : int) = bounds.(i)

(* [demand <= cap] certified over the whole stamp box — exact for all
   sizes the bounds cover. *)
let proved_fits (total : Isl.Qpoly.t) ~(cap : int)
    (bounds : (int * int) array) : bool =
  Isl.Qpoly.prove_ge (env_of bounds)
    (Isl.Qpoly.sub (Isl.Qpoly.of_int cap) total)
    0

(* Sound infeasibility probe for the DSE pruner: the parametric count is
   certified exact at every assignment inside [bounds], so a sampled
   stamp whose demand exceeds the capacity is a genuine violation.
   Samples the box corners (up to 2^8) and the midpoint; incomplete by
   design — a [false] never prunes. *)
let sample_points (bounds : (int * int) array) : int array list =
  let n = Array.length bounds in
  let mid = Array.map (fun (lo, hi) -> lo + ((hi - lo) / 2)) bounds in
  if n = 0 then [ mid ]
  else if n > 8 then [ mid; Array.map fst bounds; Array.map snd bounds ]
  else begin
    let pts = ref [ mid ] in
    for mask = 0 to (1 lsl n) - 1 do
      pts :=
        Array.init n (fun i ->
            let lo, hi = bounds.(i) in
            if mask land (1 lsl i) <> 0 then hi else lo)
        :: !pts
    done;
    !pts
  end

let sample_exceeds (total : Isl.Qpoly.t) ~(cap : int)
    (bounds : (int * int) array) : bool =
  List.exists
    (fun pt -> Isl.Qpoly.eval (fun i -> pt.(i)) total > cap)
    (sample_points bounds)

(* ------------------------------------------------------------------ *)
(* Count-free bounds.                                                  *)
(* ------------------------------------------------------------------ *)

(* Each instance consumes one operand port per access (reads and writes
   both occupy a port); the demand is a property of the op alone, so the
   verdict is exact for every size and every stamp. *)
let port_demand (op : Ir.Tensor_op.t) : int =
  List.length op.Ir.Tensor_op.accesses

(* Saturating sums and products of nonnegative ints: a bound that
   wrapped could settle a capacity it does not fit. *)
let sat_add a b = if a > max_int - b then max_int else a + b
let sat_mul a b = if b > 0 && a > max_int / b then max_int else a * b

(* An upper bound on per-stamp demand that needs no count per dataflow.
   Within one stamp an iterator takes at most [Dataflow.stamp_spread]
   values, so an access touches at most the product over its
   iterators, and a tensor at most the sum over its distinct subscript
   lists, never more than its footprint.  The bound is the sum over
   tensors.  It is at most Σ footprints, and where the coordinates pin
   every iterator at most [port_demand].  Staged: the footprints are
   counted once per op. *)
let demand_bound (op : Ir.Tensor_op.t) : Isl.Aff.t list -> int =
  let tensors =
    List.map
      (fun tensor ->
        let subscripts =
          List.sort_uniq compare
            (List.map
               (fun (a : Ir.Tensor_op.access) -> a.Ir.Tensor_op.subscripts)
               (Ir.Tensor_op.accesses_of op tensor))
        in
        ( Ir.Tensor_op.footprint op tensor,
          List.map
            (fun subs ->
              List.sort_uniq String.compare
                (List.concat_map Isl.Aff.free_vars subs))
            subscripts ))
      (Ir.Tensor_op.tensors op)
  in
  fun coords ->
    let spread = Df.Dataflow.stamp_spread op coords in
    List.fold_left
      (fun total (footprint, accesses) ->
        let touched =
          List.fold_left
            (fun n iters ->
              sat_add n
                (List.fold_left (fun m x -> sat_mul m (spread x)) 1 iters))
            0 accesses
        in
        sat_add total (min footprint touched))
      0 tensors

(* ------------------------------------------------------------------ *)
(* Diagnostics.                                                        *)
(* ------------------------------------------------------------------ *)

let check (spec : Arch.Spec.t) (op : Ir.Tensor_op.t) (df : Df.Dataflow.t) :
    D.t list =
  if not (Arch.Spec.has_capacities spec) then []
  else begin
    let name = df.Df.Dataflow.name in
    let out = ref [] in
    let emit d = out := d :: !out in
    (match spec.Arch.Spec.pe_ports with
    | None -> ()
    | Some ports ->
        Obs.incr c_exact;
        let demand = port_demand op in
        if demand > ports then
          emit
            (D.make "TN016"
               ~witness:
                 (D.witness
                    ~space:(Isl.Space.to_string (Ir.Tensor_op.space op))
                    (Array.of_list
                       (List.map
                          (fun it -> it.Ir.Tensor_op.lo)
                          op.Ir.Tensor_op.iters))
                    ~note:
                      (Printf.sprintf "%d accesses per instance, %d ports"
                         demand ports))
               (Printf.sprintf
                  "%s: every instance performs %d tensor accesses in its \
                   cycle but the PE declares pe_ports = %d"
                  name demand ports)));
    (* TN014 fast path: the count-free bound that fits, else a proof of
       the capacity bound over the whole stamp box; either way the
       verdict holds for all sizes. *)
    let chip_words =
      Option.map (fun b -> b / word_bytes) spec.Arch.Spec.scratchpad_bytes
    in
    let bound = lazy (demand_bound op) in
    let settled ~coords ~cap demand =
      let fits =
        Lazy.force bound coords <= cap
        ||
        match demand op df with
        | Some (total, bounds) -> proved_fits total ~cap bounds
        | None -> false
      in
      if fits then Obs.incr c_exact;
      fits
    in
    let pe_settled =
      match spec.Arch.Spec.pe_regs with
      | None -> true
      | Some cap ->
          settled
            ~coords:(df.Df.Dataflow.space @ df.Df.Dataflow.time)
            ~cap pe_demand
    in
    let chip_settled =
      match chip_words with
      | None -> true
      | Some cap -> settled ~coords:df.Df.Dataflow.time ~cap chip_demand
    in
    let need_machine =
      (not pe_settled) || (not chip_settled)
      || spec.Arch.Spec.link_width <> None
      || spec.Arch.Spec.max_fanout <> None
      || spec.Arch.Spec.dram_bw <> None
    in
    if need_machine then begin
      Obs.incr c_fallback;
      let pk = (Sim.run spec op df).Sim.peaks in
      let st = Isl.Space.to_string (Df.Dataflow.st_space df) in
      (match spec.Arch.Spec.pe_regs with
      | Some cap when (not pe_settled) && pk.Sim.pe_live > cap ->
          emit
            (D.make "TN014"
               ~witness:
                 (D.witness ~space:st pk.pe_live_at
                    ~note:
                      (Printf.sprintf "%d live words > pe_regs = %d"
                         pk.pe_live cap))
               (Printf.sprintf
                  "%s: a PE holds %d distinct tensor elements in one stamp \
                   but the register file holds pe_regs = %d"
                  name pk.pe_live cap))
      | _ -> ());
      (match chip_words with
      | Some cap when (not chip_settled) && pk.chip_live > cap ->
          emit
            (D.make "TN014"
               ~witness:
                 (D.witness ~space:"T" pk.chip_live_at
                    ~note:
                      (Printf.sprintf "%d live words > %d words on chip"
                         pk.chip_live cap))
               (Printf.sprintf
                  "%s: the on-chip working set peaks at %d words (%d \
                   bytes) but scratchpad_bytes = %d holds %d words"
                  name pk.chip_live
                  (pk.chip_live * word_bytes)
                  (Option.get spec.Arch.Spec.scratchpad_bytes)
                  cap))
      | _ -> ());
      (match spec.Arch.Spec.link_width with
      | Some w when pk.link_load > w ->
          emit
            (D.make "TN015"
               ~witness:
                 (D.witness ~space:"(T, PE_src, PE_dst)" pk.link_load_at
                    ~note:
                      (Printf.sprintf "%d transfers > link_width = %d"
                         pk.link_load w))
               (Printf.sprintf
                  "%s: one interconnect edge carries %d distinct transfers \
                   in one cycle but link_width = %d"
                  name pk.link_load w))
      | _ -> ());
      (match spec.Arch.Spec.max_fanout with
      | Some fo when pk.fanout > fo ->
          emit
            (D.make "TN017"
               ~witness:
                 (D.witness ~space:"(T, PE_src)" pk.fanout_at
                    ~note:
                      (Printf.sprintf "%d destinations > max_fanout = %d"
                         pk.fanout fo))
               (Printf.sprintf
                  "%s: one PE multicasts an element to %d destinations in \
                   one cycle but max_fanout = %d"
                  name pk.fanout fo))
      | _ -> ());
      (match spec.Arch.Spec.dram_bw with
      | Some bw when pk.inflow > bw ->
          emit
            (D.make "TN018"
               ~witness:
                 (D.witness ~space:"T" pk.inflow_at
                    ~note:
                      (Printf.sprintf "%d words/cycle > dram_bw = %d"
                         pk.inflow bw))
               (Printf.sprintf
                  "%s: %d words enter the on-chip working set in one stamp \
                   but dram_bw = %d words per cycle"
                  name pk.inflow bw))
      | _ -> ())
    end;
    List.rev !out
  end

let lint (spec : Arch.Spec.t) : D.t list =
  if Arch.Spec.has_capacities spec then []
  else
    [
      D.make "TN019"
        ~witness:
          (D.witness ~space:"PE"
             (Arch.Pe_array.dims spec.Arch.Spec.pe)
             ~note:
               "declare scratchpad_bytes / pe_regs / link_width / pe_ports \
                / max_fanout / dram_bw to enable TN014-TN018")
        "architecture declares no resource capacities; the feasibility \
         checks TN014-TN018 are vacuous";
    ]

(* ------------------------------------------------------------------ *)
(* DSE pruning.                                                        *)
(* ------------------------------------------------------------------ *)

(* A candidate is rejected only on a *proof* of infeasibility (the
   constant port demand, or a sampled stamp of a certified parametric
   count exceeding the capacity); anything undecided is kept, so a
   capacity-pruned search returns exactly what the unpruned oracle
   would on every feasible candidate.  The simulator is deliberately not
   run here — the pruner must stay cheap relative to the evaluation it
   avoids — and a capacity whose count-free bound fits is not counted
   at all: the count could not exceed the bound at any sample.

   Each tested candidate bumps one of three counters: [bounded] (no
   count ran, the port verdict included), [counted] (certified counts
   decided) or [resisted] (a count resisted, so the candidate is
   kept). *)

type sampled = Fits | Exceeds | Resists

let feasible (spec : Arch.Spec.t) (op : Ir.Tensor_op.t) :
    (Df.Dataflow.t -> bool) option =
  if not (Arch.Spec.has_capacities spec) then None
  else begin
    let ports_bad =
      match spec.Arch.Spec.pe_ports with
      | Some ports -> port_demand op > ports
      | None -> false
    in
    (* an undeclared capacity never binds *)
    let pe_cap = Option.value spec.Arch.Spec.pe_regs ~default:max_int in
    let chip_cap =
      match spec.Arch.Spec.scratchpad_bytes with
      | Some bytes -> bytes / word_bytes
      | None -> max_int
    in
    (* staged once per predicate, eagerly rather than as a [Lazy]:
       serve [dse] requests build and run the predicate on pool
       domains *)
    let bound =
      if ports_bad || (pe_cap = max_int && chip_cap = max_int) then fun _ -> 0
      else demand_bound op
    in
    let fits ~cap coords = cap = max_int || bound coords <= cap in
    let sample demand ~cap =
      match demand with
      | Some (total, bounds) ->
          if sample_exceeds total ~cap bounds then Exceeds else Fits
      | None -> Resists
    in
    let verdict c ok =
      Obs.incr c;
      ok
    in
    Some
      (fun df ->
        if ports_bad then verdict c_bounded false
        else
          let pe_fits =
            fits ~cap:pe_cap (df.Df.Dataflow.space @ df.Df.Dataflow.time)
          in
          let chip_fits = fits ~cap:chip_cap df.Df.Dataflow.time in
          if pe_fits && chip_fits then verdict c_bounded true
          else
            match
              let pe =
                if pe_fits then Fits else sample (pe_demand op df) ~cap:pe_cap
              in
              let chip =
                if chip_fits || pe = Exceeds then Fits
                else sample (chip_demand op df) ~cap:chip_cap
              in
              (pe, chip)
            with
            | Exceeds, _ | _, Exceeds -> verdict c_counted false
            | Resists, _ | _, Resists -> verdict c_resisted true
            | Fits, Fits -> verdict c_counted true
            | exception _ -> verdict c_resisted true)
  end

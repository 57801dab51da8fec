(* Resource-feasibility diagnostics (TN014-TN018) and the
   no-capacities lint (TN019).

   A dataflow that passes the structural checks (rank, containment,
   injectivity, causality) can still be unbuildable: the working set may
   not fit the register files or the scratchpad, a wire may have to
   carry two values in the same cycle, a PE may demand more operands
   than it has ports.  This module decides those questions with the same
   two-tier strategy as the performance model:

   - symbolically where possible: per-stamp demand is a cardinality of
     the data-assignment relation [A = Θ⁻¹ . A_{S,F}] with the stamp
     coordinates as free parameters ({!Tenet_isl.Count.count_union_param}),
     and [Qpoly.prove_ge] certifies the capacity bound for *every* stamp
     at once — exact for all sizes, O(1) per query
     ([analysis.capacity_exact]);

   - by per-timestamp enumeration otherwise: a stamp-by-stamp walk of
     the machine state that mirrors [Tenet_sim.Simulator.run]'s
     window-1 register and interconnect semantics exactly
     ([analysis.capacity_fallback]).  The oracle suite
     (test/test_oracle.ml) compares the enumerated peaks with the
     simulator's on every zoo subject in every test run.

   Transfer attribution (shared with the simulator's peak probes): an
   element moves over the interconnect edge [q -> p] in stamp [t] iff
   PE [p] needs it, does not hold it from the previous stamp, and [q] is
   the lexicographically least predecessor that can supply it (for
   interval-0 wires: a co-needing PE this stamp; for interval-1: a
   holder from the previous stamp).  Lex-least matches
   {!Tenet_dataflow.Spacetime.lex_lt_pairs}' fetcher convention. *)

module Isl = Tenet_isl
module Ir = Tenet_ir
module Arch = Tenet_arch
module Df = Tenet_dataflow
module C = Tenet_model.Concrete
module Obs = Tenet_obs
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
(* Per-timestamp enumeration: exact peaks with argmax witnesses.       *)
(* ------------------------------------------------------------------ *)

type peaks = {
  pe_live : int;  (** max distinct elements resident in one PE, one stamp *)
  pe_live_at : int array;  (** (p.., t..) stamp achieving it *)
  chip_live : int;  (** max distinct (tensor, element) live in one stamp *)
  chip_live_at : int array;  (** (t..) *)
  link_load : int;  (** max transfers over one edge in one stamp *)
  link_load_at : int array;  (** (t.., src p.., dst p..) *)
  fanout : int;  (** max destinations of one element from one PE, one stamp *)
  fanout_at : int array;  (** (t.., src p..) *)
  inflow : int;  (** max elements entering the live set in one stamp *)
  inflow_at : int array;  (** (t..) *)
}

(* Walk the stamps in lexicographic order, replaying the simulator's
   machine state (window-1 register files, lex-filtered predecessor
   wires) and tracking peak occupancy instead of traffic.  Ties are
   broken toward the earliest stamp, then the lex-least PE (pair), so
   the witness is deterministic. *)
let enumerate_peaks (spec : Arch.Spec.t) (op : Ir.Tensor_op.t)
    (df : Df.Dataflow.t) : peaks =
  Obs.with_span ~args:[ ("dataflow", df.Df.Dataflow.name) ]
    "analysis.capacity_enumerate"
  @@ fun () ->
  let c = C.compile op df in
  let pe = spec.Arch.Spec.pe in
  let pe_base = Array.map (fun d -> (0, d)) (Arch.Pe_array.dims pe) in
  let pe_size = Arch.Pe_array.size pe in
  let r = Df.Dataflow.n_space df and m = Df.Dataflow.n_time df in
  C.with_pool @@ fun pool ->
  (* the concrete engine's pass 1: instances in stamp order, each
     stamp's run in instance order *)
  let st = C.order_stamps pool c ~pe_base ~n:(C.instance_count op) in
  let interval = Arch.Interconnect.interval spec.Arch.Spec.topology in
  let preds = C.pred_pe_keys spec in
  let tensors = Array.of_list (Ir.Tensor_op.tensors op) in
  let n_tensors = Array.length tensors in
  let accs =
    Array.map (fun t -> Array.of_list (Ir.Tensor_op.accesses_of op t)) tensors
  in
  (* window-1 register files: the element set each PE touched in its
     last active stamp (idle stamps retain it, as in the simulator) *)
  let regs : int array list array = Array.make (pe_size * n_tensors) [] in
  let iv = Array.make c.C.n_iters 0 in
  let fs_of inst ti =
    C.decode_iters c inst iv;
    Array.blit iv 0 c.C.vals 0 c.C.n_iters;
    List.sort_uniq compare
      (Array.to_list
         (Array.map
            (fun (a : Ir.Tensor_op.access) ->
              Array.of_list
                (List.map
                   (fun e -> Isl.Aff.eval c.C.env e)
                   a.Ir.Tensor_op.subscripts))
            accs.(ti)))
  in
  let decode_t tkey =
    let a = Array.make m 0 in
    C.decode c.C.time_base tkey a;
    a
  in
  let decode_p pkey =
    let a = Array.make r 0 in
    C.decode pe_base pkey a;
    a
  in
  let best_pe = ref (-1) and best_pe_at = ref [||] in
  let best_chip = ref (-1) and best_chip_at = ref [||] in
  let best_link = ref (-1) and best_link_at = ref [||] in
  let best_fan = ref (-1) and best_fan_at = ref [||] in
  let best_inflow = ref (-1) and best_inflow_at = ref [||] in
  let prev_live : (int * int array, unit) Hashtbl.t ref =
    ref (Hashtbl.create 64)
  in
  for k = 0 to st.C.n_stamps - 1 do
    let tkey = st.C.codes.(k) in
    (* (PE, instance) pairs, the run's newest instance first *)
    let stop = st.C.starts.(k + 1) in
    let insts =
      List.init (stop - st.C.starts.(k)) (fun j ->
          let i = st.C.order.(stop - 1 - j) in
          (st.C.pkey.(i), i))
    in
    let needs =
      List.map
        (fun (pkey, inst) ->
          (pkey, List.init n_tensors (fun ti -> (ti, fs_of inst ti))))
        insts
    in
    let stamp_needs : (int * int, int array list) Hashtbl.t =
      Hashtbl.create 64
    in
    let used_now : (int * int array, unit) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (pkey, per_tensor) ->
        List.iter
          (fun (ti, fs) ->
            Hashtbl.replace stamp_needs (pkey, ti) fs;
            List.iter (fun f -> Hashtbl.replace used_now (ti, f) ()) fs)
          per_tensor)
      needs;
    (* chip-level residency and off-chip inflow *)
    let chip = Hashtbl.length used_now in
    if chip > !best_chip then begin
      best_chip := chip;
      best_chip_at := decode_t tkey
    end;
    let inflow =
      Hashtbl.fold
        (fun k () acc -> if Hashtbl.mem !prev_live k then acc else acc + 1)
        used_now 0
    in
    if inflow > !best_inflow then begin
      best_inflow := inflow;
      best_inflow_at := decode_t tkey
    end;
    (* per-PE residency (what the register file must hold after this
       stamp commits), lex-least PE among ties *)
    let stamp_pe = ref None in
    List.iter
      (fun (pkey, per_tensor) ->
        let live =
          List.fold_left (fun a (_, fs) -> a + List.length fs) 0 per_tensor
        in
        match !stamp_pe with
        | Some (bl, bp) when bl > live || (bl = live && bp <= pkey) -> ()
        | _ -> stamp_pe := Some (live, pkey))
      needs;
    (match !stamp_pe with
    | Some (live, pkey) when live > !best_pe ->
        best_pe := live;
        best_pe_at := Array.append (decode_p pkey) (decode_t tkey)
    | _ -> ());
    (* interconnect transfers: per-edge load and per-source fan-out *)
    let edge_load : (int * int, int ref) Hashtbl.t = Hashtbl.create 64 in
    let fan : (int * int * int array, int ref) Hashtbl.t =
      Hashtbl.create 64
    in
    List.iter
      (fun (pkey, per_tensor) ->
        List.iter
          (fun (ti, fs) ->
            let held = regs.((pkey * n_tensors) + ti) in
            let have_local f =
              List.exists (fun g -> compare g f = 0) held
            in
            let supplier f =
              List.fold_left
                (fun acc q ->
                  let has =
                    if interval = 0 then
                      match Hashtbl.find_opt stamp_needs (q, ti) with
                      | None -> false
                      | Some fs' ->
                          List.exists (fun g -> compare g f = 0) fs'
                    else
                      List.exists
                        (fun g -> compare g f = 0)
                        regs.((q * n_tensors) + ti)
                  in
                  if not has then acc
                  else
                    match acc with
                    | Some b when b <= q -> acc
                    | _ -> Some q)
                None preds.(pkey)
            in
            List.iter
              (fun f ->
                if not (have_local f) then
                  match supplier f with
                  | None -> ()
                  | Some q ->
                      (match Hashtbl.find_opt edge_load (q, pkey) with
                      | Some n -> incr n
                      | None -> Hashtbl.add edge_load (q, pkey) (ref 1));
                      (match Hashtbl.find_opt fan (q, ti, f) with
                      | Some n -> incr n
                      | None -> Hashtbl.add fan (q, ti, f) (ref 1)))
              fs)
          per_tensor)
      needs;
    let stamp_link = ref None in
    Hashtbl.iter
      (fun (q, p) n ->
        let n = !n in
        match !stamp_link with
        | Some (bn, bq, bp) when bn > n || (bn = n && (bq, bp) <= (q, p))
          ->
            ()
        | _ -> stamp_link := Some (n, q, p))
      edge_load;
    (match !stamp_link with
    | Some (n, q, p) when n > !best_link ->
        best_link := n;
        best_link_at :=
          Array.concat [ decode_t tkey; decode_p q; decode_p p ]
    | _ -> ());
    let stamp_fan = ref None in
    Hashtbl.iter
      (fun (q, _, _) n ->
        let n = !n in
        match !stamp_fan with
        | Some (bn, bq) when bn > n || (bn = n && bq <= q) -> ()
        | _ -> stamp_fan := Some (n, q))
      fan;
    (match !stamp_fan with
    | Some (n, q) when n > !best_fan ->
        best_fan := n;
        best_fan_at := Array.append (decode_t tkey) (decode_p q)
    | _ -> ());
    (* commit: active PEs replace their register sets, idle PEs keep *)
    List.iter
      (fun (pkey, per_tensor) ->
        List.iter
          (fun (ti, fs) -> regs.((pkey * n_tensors) + ti) <- fs)
          per_tensor)
      needs;
    prev_live := used_now
  done;
  {
    pe_live = max 0 !best_pe;
    pe_live_at = !best_pe_at;
    chip_live = max 0 !best_chip;
    chip_live_at = !best_chip_at;
    link_load = max 0 !best_link;
    link_load_at = !best_link_at;
    fanout = max 0 !best_fan;
    fanout_at = !best_fan_at;
    inflow = max 0 !best_inflow;
    inflow_at = !best_inflow_at;
  }

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

(* Upper bounds on per-stamp demand that need no count per dataflow.
   The elements of a tensor live in one stamp lie in its footprint, so
   Σ footprints (counted once per op) bounds the chip's demand and one
   PE's, for any Θ.  When Θ is injective a PE runs at most one instance
   per stamp, and one instance touches at most [port_demand] distinct
   elements.  A capacity whose bound fits is settled without counting
   its demand. *)
let footprint_total (op : Ir.Tensor_op.t) : int =
  List.fold_left
    (fun acc tensor -> acc + Ir.Tensor_op.footprint op tensor)
    0 (Ir.Tensor_op.tensors op)

let pe_bound_fits (op : Ir.Tensor_op.t) ~(footprints : int) ~(cap : int)
    (df : Df.Dataflow.t) : bool =
  footprints <= cap
  || (port_demand op <= cap && Df.Dataflow.injective_by_construction op df)

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
    (* TN014 fast path: a count-free bound that fits, else a proof of
       the capacity bound over the whole stamp box; either way the
       verdict holds for all sizes. *)
    let chip_words =
      Option.map (fun b -> b / word_bytes) spec.Arch.Spec.scratchpad_bytes
    in
    let footprints =
      if spec.Arch.Spec.pe_regs = None && chip_words = None then 0
      else footprint_total op
    in
    let settled ~bound_fits ~cap demand =
      let fits =
        bound_fits
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
          settled ~bound_fits:(pe_bound_fits op ~footprints ~cap df) ~cap
            pe_demand
    in
    let chip_settled =
      match chip_words with
      | None -> true
      | Some cap -> settled ~bound_fits:(footprints <= cap) ~cap chip_demand
    in
    let need_enum =
      (not pe_settled) || (not chip_settled)
      || spec.Arch.Spec.link_width <> None
      || spec.Arch.Spec.max_fanout <> None
      || spec.Arch.Spec.dram_bw <> None
    in
    if need_enum then begin
      Obs.incr c_fallback;
      let pk = enumerate_peaks spec op df in
      let st = Isl.Space.to_string (Df.Dataflow.st_space df) in
      (match spec.Arch.Spec.pe_regs with
      | Some cap when (not pe_settled) && pk.pe_live > cap ->
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
   would on every feasible candidate.  Enumeration is deliberately not
   used here — the pruner must stay cheap relative to the evaluation it
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
    (* counted once per predicate, eagerly rather than as a [Lazy]:
       serve [dse] requests build and run the predicate on pool
       domains *)
    let footprints =
      if ports_bad || (pe_cap = max_int && chip_cap = max_int) then 0
      else footprint_total op
    in
    let chip_fits = footprints <= chip_cap in
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
          let pe_fits = pe_bound_fits op ~footprints ~cap:pe_cap df in
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

(* Exact integer-point counting over {!Bset} basic sets.

   Semantics: [count b] is the number of distinct assignments to the
   *visible* dimensions of [b] for which the existential dimensions can be
   completed so that all constraints (including the implicit bounds of
   floor-division definitions) hold.

   Algorithm (replaces Barvinok counting in the original TENET):
   1. materialize div definitions as inequality pairs and normalize;
   2. Gaussian-substitute unit-coefficient equalities (existentials
      freely; visible dims whenever every other variable in the equality
      is functionally determined by the remaining dimensions — an alive
      visible, or a div-defined existential whose definition bottoms out
      in alive visibles — which keeps the count invariant);
   3. order variables greedily so every variable is bounded by its
      predecessors, preferring visible variables first;
   4. count symbolically, level by level, with a quasi-polynomial
      summation engine ({!Qpoly}, "Barvinok-lite"): working from the
      innermost visible level outward, the partial count below each
      level is kept as a quasi-polynomial in the outer variables, and
      each level integrates it in closed form between its (dominant)
      lower and upper bound via Faulhaber antidifferences, with floor
      atoms canonicalized so mod/fdiv bounds cancel exactly.  The
      existential suffix is discharged symbolically too when every
      existential level provably has a nonempty value interval.  Each
      level certifies its own side conditions (bound dominance,
      nonnegative width, polynomial integrand) with exact interval
      arithmetic; a level that fails falls back to the pre-existing
      enumeration for that level only, keeping the older escapes:
      - a variable not referenced by any later constraint contributes a
        width factor instead of being enumerated (boxes cost O(dims));
      - once the remaining visible suffix is past every variable the
        existential constraints mention, satisfiability is checked once
        and the suffix is counted arithmetically (interval-width tail,
        degree-1 Faulhaber with exact clamps);
      - the per-level loops only remain for levels outside the
        supported fragment.
   5. If the greedy order is forced to place an existential before a
      visible variable (e.g. a range projection where a visible dim is
      only defined through existentials — rare now that step 2 usually
      eliminates such dims), enumeration falls back to collecting
      distinct visible tuples in a hash table.

   On top of the enumeration engine sits a bounded, domain-safe memo
   cache keyed by the canonicalized compiled constraint system: DSE
   sweeps re-count structurally identical sets hundreds of times, and a
   cache hit skips enumeration entirely (see docs/performance.md). *)

module IM = Tenet_util.Int_math
module Obs = Tenet_obs

(* Telemetry cells, resolved once so enabled-mode bumps are atomic adds
   and disabled-mode bumps are a single bool check (see docs/performance.md
   for the counter glossary). *)
let c_bset_calls = Obs.counter "count.bset_calls"
let c_points = Obs.counter "count.points_enumerated"
let c_closed = Obs.counter "count.closed_form_hits"
let c_closed_tail = Obs.counter "count.closed_tail_hits"
let c_faulhaber = Obs.counter "count.faulhaber_hits"
let c_qpoly = Obs.counter "count.qpoly_hits"
let c_qpoly_fb = Obs.counter "count.qpoly_fallbacks"
let c_tpl = Obs.counter "count.template_hits"
let c_tpl_fb = Obs.counter "count.template_fallbacks"
let c_fm = Obs.counter "count.fm_derivations"
let c_dedup = Obs.counter "count.dedup_fallbacks"
let c_cache_hits = Obs.counter "count.cache_hits"
let c_cache_misses = Obs.counter "count.cache_misses"
let c_cache_evictions = Obs.counter "count.cache_evictions"
let c_verify_checks = Obs.counter "count.verify_checks"
let c_verify_mismatches = Obs.counter "count.verify_mismatches"

(* --- counting sanitizer (TENET_COUNT_VERIFY) ----------------------------

   When armed, every cardinality computed through the symbolic/qpoly fast
   path is re-derived through the plain enumeration path (closed tails
   but no symbolic chain) and the two must agree.  This is CI's soundness
   mode for the Barvinok-lite engine: a disagreement raises
   [Verify_mismatch] instead of silently propagating a wrong volume.
   Verification happens at cache-fill time, so each distinct constraint
   system is cross-checked once per cache epoch. *)

exception Verify_mismatch of { fast : int; reference : int; set : string }

let () =
  Printexc.register_printer (function
    | Verify_mismatch { fast; reference; set } ->
        Some
          (Printf.sprintf
             "Count.Verify_mismatch: symbolic count %d <> enumerated %d on %s"
             fast reference set)
    | _ -> None)

let verify_forced : bool option ref = ref None

(* Read once at module init: reading the environment cannot fail, and a
   [lazy] here would not be domain-safe (pool domains race on the first
   count; the losers raise [CamlinternalLazy.Undefined]). *)
let verify_env =
  match Sys.getenv_opt "TENET_COUNT_VERIFY" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false

let verify_mode () =
  match !verify_forced with Some b -> b | None -> verify_env

let set_verify_mode b = verify_forced := b

(* Test hook: replaces the enumeration reference with a stub so the
   mismatch path itself can be exercised. *)
let verify_oracle_for_tests : (Bset.t -> int) option ref = ref None

exception Unbounded of string

type con = Bset.con = { a : int array; k : int; eq : bool }

(* ------------------------------------------------------------------ *)
(* Compilation: materialize divs, normalize, Gaussian substitution.    *)
(* ------------------------------------------------------------------ *)

type compiled = {
  nvis : int;
  nvars : int;
  is_vis : bool array;
  alive : bool array; (* vars not eliminated by substitution *)
  cons : con array;
}

exception Empty_set

let materialize_defs (b : Bset.t) : con list =
  let nvars = Bset.nvars b in
  let out = ref [] in
  Array.iteri
    (fun e def ->
      match def with
      | None -> ()
      | Some (d : Bset.def) ->
          let v = b.Bset.nvis + e in
          (* num.x + dk - den*v >= 0 *)
          let a1 = Array.make nvars 0 in
          Array.iteri (fun i c -> a1.(i) <- c) d.Bset.num;
          a1.(v) <- a1.(v) - d.Bset.den;
          out := { a = a1; k = d.Bset.dk; eq = false } :: !out;
          (* den*v - num.x - dk + den - 1 >= 0 *)
          let a2 = Array.make nvars 0 in
          Array.iteri (fun i c -> a2.(i) <- -c) d.Bset.num;
          a2.(v) <- a2.(v) + d.Bset.den;
          out := { a = a2; k = -d.Bset.dk + d.Bset.den - 1; eq = false } :: !out)
    b.Bset.defs;
  !out

(* Normalize one constraint; raise [Empty_set] on constant contradiction,
   return [None] for a trivially true constraint. *)
let normalize (c : con) : con option =
  let g = Tenet_util.Ivec.content c.a in
  if g = 0 then
    if (c.eq && c.k <> 0) || ((not c.eq) && c.k < 0) then raise Empty_set
    else None
  else if c.eq then
    if c.k mod g <> 0 then raise Empty_set
    else Some { c with a = Array.map (fun x -> x / g) c.a; k = c.k / g }
  else Some { c with a = Array.map (fun x -> x / g) c.a; k = IM.fdiv c.k g }

(* Substitute variable [v] using equality [eqc] (with coefficient +-1 on
   [v]) into constraint [c]. *)
let substitute ~v ~(eqc : con) (c : con) : con option =
  if c.a.(v) = 0 then Some c
  else begin
    let s = eqc.a.(v) in
    (* eqc: s*v + rest = 0 with s = +-1, so v = -s*rest.  Adding
       m * eqc with m = -c.a.(v) * s zeroes v's coefficient in c. *)
    let m = -c.a.(v) * s in
    let a = Array.init (Array.length c.a) (fun i -> c.a.(i) + (m * eqc.a.(i))) in
    normalize { a; k = c.k + (m * eqc.k); eq = c.eq }
  end

(* [~elim_vis:false] keeps all visible variables alive so that iteration
   can report full visible tuples.  [~protect:k] additionally forbids
   eliminating visible dims [0..k-1]: the parametric planner needs the
   size parameters to survive compilation so the symbolic chain can stop
   at them (a parameter folded into another dim's expression would no
   longer be a free variable of the resulting quasi-polynomial). *)
let compile ?(elim_vis = true) ?(protect = 0) (b : Bset.t) : compiled option =
  Obs.incr c_bset_calls;
  let nvars = Bset.nvars b in
  let nvis = b.Bset.nvis in
  try
    let cons0 = List.filter_map normalize (materialize_defs b @ b.Bset.cons) in
    (* Unify structurally identical div definitions: two existentials
       with the same numerator, offset and denominator denote the same
       value, so an equality between them is sound.  Meets and theta
       compositions routinely introduce such duplicates (e.g. three
       copies of [floor(i/8)]), and without the link each copy blocks a
       different visible variable from being determined.  The equalities
       have unit coefficients, so the Gaussian pass below absorbs them. *)
    let unif = ref [] in
    let ndivs = Array.length b.Bset.defs in
    for i = 0 to ndivs - 1 do
      match b.Bset.defs.(i) with
      | None -> ()
      | Some (di : Bset.def) ->
          for j = i + 1 to ndivs - 1 do
            match b.Bset.defs.(j) with
            | Some (dj : Bset.def)
              when di.Bset.den = dj.Bset.den
                   && di.Bset.dk = dj.Bset.dk
                   && di.Bset.num = dj.Bset.num ->
                let a = Array.make nvars 0 in
                a.(nvis + i) <- 1;
                a.(nvis + j) <- -1;
                unif := { a; k = 0; eq = true } :: !unif
            | _ -> ()
          done
    done;
    let cons = ref (!unif @ cons0) in
    let alive = Array.make nvars true in
    let is_vis = Array.init nvars (fun i -> i < nvis) in
    (* A visible dim [v] may be eliminated through an equality only when
       its defining expression is a function of the dimensions that
       remain, so that distinct reduced tuples correspond to distinct
       full tuples.  [determined ~except w] certifies that: an alive
       visible other than [except] is determined (it is enumerated); a
       div-defined existential is determined when its definition's
       support is, transitively (div defs reference earlier variables
       only, so this terminates).  Existentials without a definition,
       and definitions reaching [except] or an already-eliminated
       visible, are conservatively not determined. *)
    let rec determined ~except w =
      if w < nvis then w <> except && alive.(w)
      else
        match b.Bset.defs.(w - nvis) with
        | None -> false
        | Some (d : Bset.def) ->
            let ok = ref true in
            Array.iteri
              (fun u c -> if c <> 0 && not (determined ~except u) then ok := false)
              d.Bset.num;
            !ok
    in
    let determined_expr (c : con) ~except =
      let ok = ref true in
      Array.iteri
        (fun i coeff ->
          if i <> except && coeff <> 0 && not (determined ~except i) then
            ok := false)
        c.a;
      !ok
    in
    (* Among the eliminable variables, take the one occurring in the
       fewest *other* constraints.  This is what routes elimination to
       defined outputs (a Θ stamp appears only in its defining equality)
       rather than to an iterator: substituting an iterator away would
       spread the equality's div existentials into its box constraints,
       leaving the stamp bounded only through existentials — and that
       forces the hash-dedup fallback downstream. *)
    let occurrences v ~(excl : con) =
      List.fold_left
        (fun acc c -> if c != excl && c.a.(v) <> 0 then acc + 1 else acc)
        0 !cons
    in
    let rec pass () =
      let best = ref None in
      List.iter
        (fun c ->
          if c.eq then
            Array.iteri
              (fun v coeff ->
                if
                  alive.(v) && v >= protect
                  && abs coeff = 1
                  && (v >= nvis || (elim_vis && determined_expr c ~except:v))
                then begin
                  let occ = occurrences v ~excl:c in
                  match !best with
                  | Some (o, _, _) when o <= occ -> ()
                  | _ -> best := Some (occ, v, c)
                end)
              c.a)
        !cons;
      match !best with
      | None -> ()
      | Some (_, v, eqc) ->
          alive.(v) <- false;
          cons :=
            List.filter_map
              (fun c -> if c == eqc then None else substitute ~v ~eqc c)
              !cons;
          pass ()
    in
    pass ();
    Some { nvis; nvars; is_vis; alive; cons = Array.of_list !cons }
  with Empty_set -> None

(* ------------------------------------------------------------------ *)
(* Variable ordering.                                                  *)
(* ------------------------------------------------------------------ *)

type level_con = {
  lc_terms : (int * int) array; (* (earlier position, coeff) *)
  lc_self : int; (* coefficient of the variable at this position *)
  lc_k : int;
  lc_eq : bool;
}

type plan = {
  order : int array; (* order.(pos) = var index *)
  pos_of : int array; (* inverse; -1 for unordered/dead vars *)
  nvis_positions : int;
  dedup : bool; (* some existential precedes a visible var *)
  level_cons : level_con list array; (* constraints whose last var is here *)
  independent : bool array; (* var at pos unreferenced after pos *)
  vis_tail : int;
      (* first visible position past every visible variable the
         existential levels reference: from here on, existential
         satisfiability is already decided and the suffix counts in
         closed form.  [nvis_positions] when no such tail exists
         (including all dedup plans). *)
  sym_inner : (level_con * level_con) option;
      (* the innermost visible level's (lower, upper) bound pair when it
         is exactly one of each with unit self-coefficients — the shape
         whose width is affine in the surrounding variables, enabling
         the Faulhaber sum one level up *)
  sym : Qpoly.t option array;
      (* [sym.(pos)], when present, is the exact count of the visible
         suffix [pos, nvis_positions) as a quasi-polynomial in the
         positions before [pos] — built innermost-out by symbolic
         summation, [Some one] at [nvis_positions].  Valid for any
         assignment of the earlier positions that satisfies their level
         constraints (side conditions are certified over conservative
         per-position intervals at plan time).  All [None] on
         non-symbolic or dedup plans. *)
  sat_proven : bool;
      (* the existential suffix is satisfiable for *every* assignment
         in the certified region: each existential level provably has a
         nonempty value interval.  When set, no witness search runs and
         [sym] alone answers the count. *)
}

let make_plan ?(allow_unbounded_vis = false) ?(symbolic = false)
    (cp : compiled) : plan =
  (* Alive variables that appear in at least one constraint participate in
     enumeration.  An unconstrained existential is trivially satisfiable
     and dropped; an unconstrained visible variable makes the set
     infinite (unless the caller only needs membership tests). *)
  let appears = Array.make cp.nvars false in
  Array.iter
    (fun c -> Array.iteri (fun v coeff -> if coeff <> 0 then appears.(v) <- true) c.a)
    cp.cons;
  let vars = ref [] in
  for v = cp.nvars - 1 downto 0 do
    if cp.alive.(v) then
      if appears.(v) then vars := v :: !vars
      else if cp.is_vis.(v) && not allow_unbounded_vis then
        raise (Unbounded (Printf.sprintf "visible dim %d unconstrained" v))
  done;
  let vars = Array.of_list !vars in
  let n = Array.length vars in
  let in_order = Array.make cp.nvars false in
  let order = Array.make n (-1) in
  (* [cons] may grow with Fourier-Motzkin-derived (implied, redundant)
     constraints when the greedy ordering deadlocks on mutually-coupled
     variables, e.g. a simplex { i, j >= 0, i + j <= 3 } where neither
     variable has a one-sided bound until the other is fixed. *)
  let cons = ref cp.cons in
  let bounds_status v =
    let has_lb = ref false and has_ub = ref false in
    Array.iter
      (fun c ->
        if c.a.(v) <> 0 then begin
          let others_ready = ref true in
          Array.iteri
            (fun w coeff ->
              if w <> v && coeff <> 0 && not in_order.(w) then
                others_ready := false)
            c.a;
          if !others_ready then
            if c.eq then begin
              has_lb := true;
              has_ub := true
            end
            else if c.a.(v) > 0 then has_lb := true
            else has_ub := true
        end)
      !cons;
    (!has_lb, !has_ub)
  in
  (* Combine opposite-sign pairs on [w] into constraints without [w]. *)
  let fm_derive w =
    let as_ges c =
      if c.eq then
        [
          { c with eq = false };
          { a = Array.map (fun x -> -x) c.a; k = -c.k; eq = false };
        ]
      else [ c ]
    in
    let ges = List.concat_map as_ges (Array.to_list !cons) in
    let pos = List.filter (fun c -> c.a.(w) > 0) ges in
    let neg = List.filter (fun c -> c.a.(w) < 0) ges in
    let derived = ref [] in
    List.iter
      (fun c1 ->
        List.iter
          (fun c2 ->
            let p = c1.a.(w) and q = -c2.a.(w) in
            let a =
              Array.init (Array.length c1.a) (fun i ->
                  (q * c1.a.(i)) + (p * c2.a.(i)))
            in
            match normalize { a; k = (q * c1.k) + (p * c2.k); eq = false } with
            | Some d when not (Tenet_util.Ivec.is_zero d.a) ->
                derived := d :: !derived
            | Some _ | None -> ()
            | exception Empty_set -> raise Empty_set)
          neg)
      pos;
    !derived
  in
  let fm_done = Array.make cp.nvars false in
  let dedup = ref false in
  let pos = ref 0 in
  while !pos < n do
    let candidate = ref (-1) and candidate_vis = ref false in
    Array.iter
      (fun v ->
        if not in_order.(v) then begin
          let want = !candidate = -1 || ((not !candidate_vis) && cp.is_vis.(v)) in
          if want then begin
            let lb, ub = bounds_status v in
            if lb && ub then begin
              candidate := v;
              candidate_vis := cp.is_vis.(v)
            end
          end
        end)
      vars;
    (* Accepting an existential while visible variables remain would
       force the hash-dedup fallback (distinct visible tuples can repeat
       across existential values).  Before conceding that, try to unlock
       a visible variable by Fourier–Motzkin-eliminating a blocking
       existential: the derived (implied, redundant) constraints often
       bound the visible variable directly — e.g. a range projection
       where a stamp is only pinned through a div existential. *)
    let visible_remains () =
      Array.exists (fun v -> (not in_order.(v)) && cp.is_vis.(v)) vars
    in
    let pick_blocker ~existential_only =
      let blocker = ref (-1) and best_uses = ref 0 in
      Array.iter
        (fun v ->
          if
            (not in_order.(v))
            && (not fm_done.(v))
            && ((not existential_only) || not cp.is_vis.(v))
          then begin
            let uses =
              Array.fold_left
                (fun acc c -> if c.a.(v) <> 0 then acc + 1 else acc)
                0 !cons
            in
            if uses > !best_uses then begin
              best_uses := uses;
              blocker := v
            end
          end)
        vars;
      !blocker
    in
    let run_fm blocker =
      fm_done.(blocker) <- true;
      Obs.incr c_fm;
      cons := Array.append !cons (Array.of_list (fm_derive blocker))
      (* the same position is retried with the enriched constraint set *)
    in
    if !candidate = -1 then begin
      (* deadlock: derive implied bounds by eliminating one blocker *)
      let blocker = pick_blocker ~existential_only:false in
      if blocker = -1 then
        raise
          (Unbounded
             (Printf.sprintf "no bounded variable at position %d of %d" !pos n));
      run_fm blocker
    end
    else if (not !candidate_vis) && visible_remains () then begin
      match pick_blocker ~existential_only:true with
      | -1 ->
          (* every existential already eliminated once: concede dedup *)
          order.(!pos) <- !candidate;
          in_order.(!candidate) <- true;
          dedup := true;
          incr pos
      | blocker -> run_fm blocker
    end
    else begin
      order.(!pos) <- !candidate;
      in_order.(!candidate) <- true;
      if not !candidate_vis then
        Array.iter
          (fun v -> if (not in_order.(v)) && cp.is_vis.(v) then dedup := true)
          vars;
      incr pos
    end
  done;
  let cons = !cons in
  let pos_of = Array.make cp.nvars (-1) in
  Array.iteri (fun pos v -> pos_of.(v) <- pos) order;
  let nvis_positions =
    Array.fold_left (fun acc v -> if cp.is_vis.(v) then acc + 1 else acc) 0 vars
  in
  let level_cons = Array.make (max n 1) [] in
  let independent = Array.make (max n 1) true in
  Array.iter
    (fun c ->
      let lastpos = ref (-1) in
      Array.iteri
        (fun v coeff ->
          if coeff <> 0 && pos_of.(v) > !lastpos then lastpos := pos_of.(v))
        c.a;
      if !lastpos >= 0 then begin
        let self_var = order.(!lastpos) in
        let terms = ref [] in
        Array.iteri
          (fun v coeff ->
            if coeff <> 0 && v <> self_var then begin
              terms := (pos_of.(v), coeff) :: !terms;
              independent.(pos_of.(v)) <- false
            end)
          c.a;
        level_cons.(!lastpos) <-
          {
            lc_terms = Array.of_list !terms;
            lc_self = c.a.(self_var);
            lc_k = c.k;
            lc_eq = c.eq;
          }
          :: level_cons.(!lastpos)
      end)
    cons;
  (* Closed-form tail metadata (meaningless under dedup: positions are not
     visible-first there). *)
  let vis_tail =
    if !dedup then nvis_positions
    else begin
      let max_ref = ref (-1) in
      for p = nvis_positions to n - 1 do
        List.iter
          (fun lc ->
            Array.iter
              (fun (q, _) ->
                if q < nvis_positions && q > !max_ref then max_ref := q)
              lc.lc_terms)
          level_cons.(p)
      done;
      !max_ref + 1
    end
  in
  let sym_inner =
    if !dedup || nvis_positions < 2 then None
    else
      match level_cons.(nvis_positions - 1) with
      | [ c1; c2 ] when (not c1.lc_eq) && not c2.lc_eq -> begin
          match (c1.lc_self, c2.lc_self) with
          | 1, -1 -> Some (c1, c2)
          | -1, 1 -> Some (c2, c1)
          | _ -> None
        end
      | _ -> None
  in
  (* --- quasi-polynomial summation chain (the primary counting path) ---
     Innermost-out, [sym.(pos)] integrates [sym.(pos+1)] over position
     [pos]'s value interval in closed form.  Every step certifies its
     side conditions over conservative per-position intervals; a level
     that cannot be certified leaves [sym.(pos)] (and everything outer)
     as [None], so enumeration handles exactly the unsupported prefix. *)
  let sym = Array.make (nvis_positions + 1) None in
  let sat_proven = ref false in
  (if symbolic && not !dedup && n > 0 then
     try
       (* Conservative per-position value intervals: [ivals.(p)] contains
          every value position [p] can take in a feasible assignment
          (bounds of each level constraint evaluated over the intervals
          of the earlier positions, rounded outward). *)
       let ivals = Array.make n (0, 0) in
       let rest_iv (lc : level_con) =
         Array.fold_left
           (fun (lo, hi) (p, c) ->
             let plo, phi = ivals.(p) in
             if c >= 0 then (lo + (c * plo), hi + (c * phi))
             else (lo + (c * phi), hi + (c * plo)))
           (lc.lc_k, lc.lc_k) lc.lc_terms
       in
       for pos = 0 to n - 1 do
         let lo = ref None and hi = ref None in
         let upd_lo v = match !lo with Some l when l >= v -> () | _ -> lo := Some v in
         let upd_hi v = match !hi with Some h when h <= v -> () | _ -> hi := Some v in
         List.iter
           (fun lc ->
             let rlo, rhi = rest_iv lc in
             let s = lc.lc_self in
             if lc.lc_eq then begin
               (* v = -rest/s exactly; round outward *)
               let l, h =
                 if s > 0 then (IM.fdiv (-rhi) s, IM.cdiv (-rlo) s)
                 else (IM.fdiv rlo (-s), IM.cdiv rhi (-s))
               in
               upd_lo l;
               upd_hi h
             end
             else if s > 0 then upd_lo (IM.cdiv (-rhi) s)
             else upd_hi (IM.fdiv rhi (-s)))
           level_cons.(pos);
         match (!lo, !hi) with
         | Some l, Some h when l <= h -> ivals.(pos) <- (l, h)
         | _ -> raise Exit
       done;
       let env p = ivals.(p) in
       let rest_lin (lc : level_con) =
         Qpoly.lin (Array.to_list lc.lc_terms) lc.lc_k
       in
       (* lc with lc_self > 0 is [self*v + rest >= 0]: v >= ceil(-rest/self);
          lc_self < 0 is an upper bound: v <= floor(rest/(-self)). *)
       let lower_qp lc = Qpoly.ceil_lin (Qpoly.lin_scale (-1) (rest_lin lc)) lc.lc_self in
       let upper_qp lc = Qpoly.floor_lin (rest_lin lc) (-lc.lc_self) in
       (* Among several bounds, find one that provably dominates (is the
          effective bound) everywhere in the certified region. *)
       let dominant ~wanted cands qp_of =
         match cands with
         | [ c ] -> Some (qp_of c)
         | _ ->
             List.find_map
               (fun c1 ->
                 let q1 = qp_of c1 in
                 if
                   List.for_all
                     (fun c2 ->
                       c2 == c1
                       ||
                       let q2 = qp_of c2 in
                       let d =
                         match wanted with
                         | `Hi -> Qpoly.sub q1 q2
                         | `Lo -> Qpoly.sub q2 q1
                       in
                       Qpoly.prove_ge env d 0)
                     cands
                 then Some q1
                 else None)
               cands
       in
       (* Existential-suffix satisfiability: every existential level has
          a provably nonempty interval (width >= 1 for every lower/upper
          pair), for any values of the earlier positions in the region.
          Then no witness search is ever needed. *)
       let suffix_ok = ref true in
       for pos = nvis_positions to n - 1 do
         if !suffix_ok then begin
           let lcs = level_cons.(pos) in
           match List.partition (fun lc -> lc.lc_eq) lcs with
           | [ e ], [] when abs e.lc_self = 1 ->
               () (* exactly one value, always an integer *)
           | [], ineqs ->
               let lowers = List.filter (fun lc -> lc.lc_self > 0) ineqs in
               let uppers = List.filter (fun lc -> lc.lc_self < 0) ineqs in
               if
                 lowers = [] || uppers = []
                 || not
                      (List.for_all
                         (fun l ->
                           let ql = lower_qp l in
                           List.for_all
                             (fun u ->
                               let w =
                                 Qpoly.add (Qpoly.sub (upper_qp u) ql) Qpoly.one
                               in
                               Qpoly.prove_ge env w 1)
                             uppers)
                         lowers)
               then suffix_ok := false
           | _ -> suffix_ok := false
         end
       done;
       sat_proven := !suffix_ok;
       (* Visible chain, innermost-out. *)
       sym.(nvis_positions) <- Some Qpoly.one;
       for pos = nvis_positions - 1 downto 0 do
         match sym.(pos + 1) with
         | None -> ()
         | Some inner ->
             sym.(pos) <-
               (match List.partition (fun lc -> lc.lc_eq) level_cons.(pos) with
               | [ e ], [] when abs e.lc_self = 1 ->
                   (* v is pinned to -self*rest: substitute, width 1 *)
                   let by = Qpoly.lin_scale (-e.lc_self) (rest_lin e) in
                   Some (Qpoly.subst pos ~by inner)
               | [], (_ :: _ as ineqs) -> (
                   let lowers = List.filter (fun lc -> lc.lc_self > 0) ineqs in
                   let uppers = List.filter (fun lc -> lc.lc_self < 0) ineqs in
                   match
                     ( dominant ~wanted:`Hi lowers lower_qp,
                       dominant ~wanted:`Lo uppers upper_qp )
                   with
                   | Some qa, Some qb ->
                       (* Faulhaber telescoping needs ub >= lb - 1 *)
                       let w = Qpoly.add (Qpoly.sub qb qa) Qpoly.one in
                       if Qpoly.prove_ge env w 0 then
                         Qpoly.sum_var ~v:pos ~lb:qa ~ub:qb inner
                       else None
                   | _ -> None)
               | _ -> None)
       done
     with Exit -> ());
  if symbolic && ((not !sat_proven) || sym.(0) = None) then Obs.incr c_qpoly_fb;
  {
    order;
    pos_of;
    nvis_positions;
    dedup = !dedup;
    level_cons;
    independent;
    vis_tail;
    sym_inner;
    sym;
    sat_proven = !sat_proven;
  }

(* Compute [lb, ub] for the variable at [pos] given the assignment of all
   earlier positions; lb > ub means the level is infeasible. *)
let level_bounds (plan : plan) (value : int array) pos =
  let lb = ref min_int and ub = ref max_int in
  List.iter
    (fun lc ->
      let rest = ref lc.lc_k in
      Array.iter (fun (p, c) -> rest := !rest + (c * value.(p))) lc.lc_terms;
      let c = lc.lc_self in
      if lc.lc_eq then
        if !rest mod c <> 0 then begin
          lb := 1;
          ub := 0
        end
        else begin
          let v = - !rest / c in
          if v > !lb then lb := v;
          if v < !ub then ub := v
        end
      else if c > 0 then begin
        let b = IM.cdiv (- !rest) c in
        if b > !lb then lb := b
      end
      else begin
        let b = IM.fdiv !rest (-c) in
        if b < !ub then ub := b
      end)
    plan.level_cons.(pos);
  (!lb, !ub)

(* ------------------------------------------------------------------ *)
(* Enumeration.                                                        *)
(* ------------------------------------------------------------------ *)

let n_positions plan = Array.length plan.order

(* First-witness search over positions [pos .. n); [value] is scratch. *)
let rec exists_from plan value pos =
  if pos = n_positions plan then true
  else begin
    let lb, ub = level_bounds plan value pos in
    if lb > ub then false
    else if plan.independent.(pos) then begin
      value.(pos) <- lb;
      exists_from plan value (pos + 1)
    end
    else begin
      let rec try_v v =
        if v > ub then false
        else begin
          value.(pos) <- v;
          if exists_from plan value (pos + 1) then true else try_v (v + 1)
        end
      in
      try_v lb
    end
  end

(* Count the pure visible suffix [pos, nvis_positions): no existential
   level references these positions (guaranteed by [vis_tail]), so no
   witness search appears below and the innermost levels collapse to
   arithmetic. *)
let rec count_tail plan value pos =
  let last = plan.nvis_positions - 1 in
  if pos > last then 1
  else
    match plan.sym.(pos) with
    | Some q ->
        (* the whole remaining visible suffix in one evaluation *)
        Obs.incr c_qpoly;
        Qpoly.eval (fun p -> value.(p)) q
    | None ->
  begin
    let lb, ub = level_bounds plan value pos in
    if lb > ub then 0
    else if pos = last then begin
      (* deepest level: the loop is an interval width *)
      Obs.incr c_closed_tail;
      ub - lb + 1
    end
    else if pos = last - 1 && plan.sym_inner <> None then begin
      (* the innermost width is affine in this variable: sum it
         symbolically (arithmetic series; Faulhaber degree 1) *)
      Obs.incr c_faulhaber;
      let lbc, ubc = Option.get plan.sym_inner in
      let eval_parts lc =
        let rest = ref lc.lc_k and cpos = ref 0 in
        Array.iter
          (fun (p, c) ->
            if p = pos then cpos := !cpos + c else rest := !rest + (c * value.(p)))
          lc.lc_terms;
        (!rest, !cpos)
      in
      (* lbc is [lrest + lcoef*v + x >= 0]: x >= -(lrest + lcoef*v);
         ubc is [urest + ucoef*v - x >= 0]: x <= urest + ucoef*v.  Width
         as a function of v is w0 + w1*v, clamped at 0. *)
      let lrest, lcoef = eval_parts lbc in
      let urest, ucoef = eval_parts ubc in
      let w0 = urest + lrest + 1 in
      let w1 = ucoef + lcoef in
      if w1 = 0 then (ub - lb + 1) * max 0 w0
      else begin
        (* subrange of [lb, ub] where w0 + w1*v >= 1 *)
        let s, t =
          if w1 > 0 then (max lb (IM.cdiv (1 - w0) w1), ub)
          else (lb, min ub (IM.fdiv (w0 - 1) (-w1)))
        in
        if s > t then 0
        else begin
          let tri x = x * (x + 1) / 2 in
          (w0 * (t - s + 1)) + (w1 * (tri t - tri (s - 1)))
        end
      end
    end
    else if plan.independent.(pos) then begin
      Obs.incr c_closed;
      value.(pos) <- lb;
      (ub - lb + 1) * count_tail plan value (pos + 1)
    end
    else begin
      let acc = ref 0 in
      for v = lb to ub do
        value.(pos) <- v;
        acc := !acc + count_tail plan value (pos + 1)
      done;
      !acc
    end
  end

(* Exact-mode counting: positions [0, nvis_positions) hold visible vars.
   Reaching [vis_tail] decides existential satisfiability once (the
   remaining visible variables cannot affect it) and hands the suffix to
   the arithmetic counter above. *)
let rec count_from plan value pos =
  if plan.sat_proven && plan.sym.(pos) <> None then begin
    (* existential suffix certified nonempty and the visible suffix is
       in closed form: the count is one evaluation, no loops *)
    Obs.incr c_qpoly;
    Qpoly.eval (fun p -> value.(p)) (Option.get plan.sym.(pos))
  end
  else if pos = plan.vis_tail && pos < plan.nvis_positions then begin
    if plan.nvis_positions < n_positions plan && not plan.sat_proven then begin
      Obs.incr c_points;
      if exists_from plan value plan.nvis_positions then
        count_tail plan value pos
      else 0
    end
    else count_tail plan value pos
  end
  else if pos = plan.nvis_positions then begin
    if plan.sat_proven then 1
    else begin
      Obs.incr c_points;
      if exists_from plan value pos then 1 else 0
    end
  end
  else begin
    let lb, ub = level_bounds plan value pos in
    if lb > ub then 0
    else if plan.independent.(pos) then begin
      Obs.incr c_closed;
      value.(pos) <- lb;
      (ub - lb + 1) * count_from plan value (pos + 1)
    end
    else begin
      let acc = ref 0 in
      for v = lb to ub do
        value.(pos) <- v;
        acc := !acc + count_from plan value (pos + 1)
      done;
      !acc
    end
  end

(* Current visible tuple restricted to alive visible vars, in original
   dimension order.  Distinctness of this reduced tuple coincides with
   distinctness of the full visible tuple: eliminated visible variables are
   affine functions of the alive ones. *)
let visible_key (cp : compiled) (plan : plan) value =
  let key = ref [] in
  for v = cp.nvis - 1 downto 0 do
    if cp.alive.(v) && plan.pos_of.(v) >= 0 then
      key := value.(plan.pos_of.(v)) :: !key
  done;
  Array.of_list !key

let count_with_plan cp plan =
  let n = n_positions plan in
  if n = 0 then 1
  else if plan.dedup then begin
    Obs.incr c_dedup;
    let value = Array.make n 0 in
    let tbl = Hashtbl.create 1024 in
    let rec go pos =
      if pos = n then begin
        Obs.incr c_points;
        let key = visible_key cp plan value in
        if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key ()
      end
      else begin
        let lb, ub = level_bounds plan value pos in
        if lb <= ub then
          if plan.independent.(pos) && not cp.is_vis.(plan.order.(pos)) then begin
            value.(pos) <- lb;
            go (pos + 1)
          end
          else
            for v = lb to ub do
              value.(pos) <- v;
              go (pos + 1)
            done
      end
    in
    go 0;
    Hashtbl.length tbl
  end
  else begin
    let value = Array.make n 0 in
    count_from plan value 0
  end

(* ------------------------------------------------------------------ *)
(* Memoized cardinalities.                                             *)
(*                                                                     *)
(* Keyed by the canonicalized compiled form (constraints sorted, dead   *)
(* variables recorded), so any two basic sets that normalize to the     *)
(* same constraint system share one entry regardless of how they were   *)
(* built.  The cache is global, bounded (TENET_COUNT_CACHE entries;     *)
(* 0/off disables) and mutex-guarded: it is shared by all domains of    *)
(* the parallel work pool.  On overflow the whole table is dropped —    *)
(* the working sets here are tiny compared to the bound, so an epoch    *)
(* flush is simpler than LRU and near-free in practice.                 *)
(* ------------------------------------------------------------------ *)

module Ckey = struct
  type t = {
    k_nvis : int;
    k_nvars : int;
    k_alive : bool array;
    k_cons : (bool * int * int array) array; (* sorted for canonicity *)
  }

  let equal (a : t) (b : t) = a = b

  let hash (k : t) =
    let h = ref ((k.k_nvis * 131) + k.k_nvars) in
    let mix v = h := (!h * 131) + v in
    Array.iter (fun b -> mix (Bool.to_int b)) k.k_alive;
    Array.iter
      (fun (eq, c, a) ->
        mix (Bool.to_int eq);
        mix c;
        Array.iter mix a)
      k.k_cons;
    !h land max_int
end

module Ctbl = Hashtbl.Make (Ckey)

module Ukey = struct
  type t = Ckey.t array (* sorted: unions are order-insensitive *)

  let equal (a : t) (b : t) = a = b
  let hash (u : t) = Array.fold_left (fun h k -> (h * 131) + Ckey.hash k) 17 u
end

module Utbl = Hashtbl.Make (Ukey)

type cache_entry = {
  mutable e_card : int option;
  mutable e_empty : bool option;
  mutable e_tick : int; (* last touch, for sweep-friendly eviction *)
}

type union_entry = { u_card : int; mutable u_tick : int }

let cache_bound =
  match Sys.getenv_opt "TENET_COUNT_CACHE" with
  | None | Some "" -> 65536
  | Some ("0" | "off" | "none") -> 0
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | _ -> 65536)

let cache_mutex = Mutex.create ()
let bset_cache : cache_entry Ctbl.t = Ctbl.create 1024
let union_cache : union_entry Utbl.t = Utbl.create 256

(* Touch clock for eviction decisions; guarded by [cache_mutex]. *)
let cache_tick = ref 0
let evict_floor = ref 0 (* clock value at the previous eviction *)

let key_of_compiled (cp : compiled) : Ckey.t =
  let cons = Array.map (fun c -> (c.eq, c.k, c.a)) cp.cons in
  Array.sort compare cons;
  {
    Ckey.k_nvis = cp.nvis;
    k_nvars = cp.nvars;
    k_alive = cp.alive;
    k_cons = cons;
  }

(* Room check shared by both tables; called with [cache_mutex] held.
   Eviction is sweep-friendly: entries touched since the previous
   eviction survive (a DSE sweep keeps re-counting the same basic sets
   while entries from earlier subjects go cold), everything colder is
   dropped.  Only when the hot set itself fills the bound does the
   cache fall back to dropping everything. *)
let make_room () =
  if Ctbl.length bset_cache + Utbl.length union_cache >= cache_bound then begin
    Obs.incr c_cache_evictions;
    let floor = !evict_floor in
    let keep_b = ref [] and keep_u = ref [] in
    Ctbl.iter
      (fun k e -> if e.e_tick > floor then keep_b := (k, e) :: !keep_b)
      bset_cache;
    Utbl.iter
      (fun k e -> if e.u_tick > floor then keep_u := (k, e) :: !keep_u)
      union_cache;
    Ctbl.reset bset_cache;
    Utbl.reset union_cache;
    if List.length !keep_b + List.length !keep_u < cache_bound then begin
      List.iter (fun (k, e) -> Ctbl.add bset_cache k e) !keep_b;
      List.iter (fun (k, e) -> Utbl.add union_cache k e) !keep_u
    end;
    evict_floor := !cache_tick
  end

(* [probe ~get ~set cp compute]: consult the per-bset cache for the field
   selected by [get]/[set], computing and filling on a miss.  [compute]
   runs outside the lock (a racing duplicate computation is benign). *)
let probe ~get ~set (cp : compiled) (compute : unit -> 'a) : 'a =
  if cache_bound = 0 then compute ()
  else begin
    let key = key_of_compiled cp in
    Mutex.lock cache_mutex;
    let cached =
      match Ctbl.find_opt bset_cache key with
      | Some e ->
          incr cache_tick;
          e.e_tick <- !cache_tick;
          get e
      | None -> None
    in
    Mutex.unlock cache_mutex;
    match cached with
    | Some v ->
        Obs.incr c_cache_hits;
        v
    | None ->
        Obs.incr c_cache_misses;
        let v = compute () in
        Mutex.lock cache_mutex;
        (match Ctbl.find_opt bset_cache key with
        | Some e ->
            incr cache_tick;
            e.e_tick <- !cache_tick;
            set e v
        | None ->
            make_room ();
            incr cache_tick;
            let e = { e_card = None; e_empty = None; e_tick = !cache_tick } in
            set e v;
            Ctbl.add bset_cache key e);
        Mutex.unlock cache_mutex;
        v
  end

let cache_clear () =
  Mutex.lock cache_mutex;
  Ctbl.reset bset_cache;
  Utbl.reset union_cache;
  cache_tick := 0;
  evict_floor := 0;
  Mutex.unlock cache_mutex

let count_bset (b : Bset.t) : int =
  match compile b with
  | None -> 0
  | Some cp ->
      probe cp
        ~get:(fun e -> e.e_card)
        ~set:(fun e v -> e.e_card <- Some v)
        (fun () ->
          let n =
            match make_plan ~symbolic:true cp with
            | plan -> count_with_plan cp plan
            | exception Empty_set -> 0
          in
          if verify_mode () then begin
            Obs.incr c_verify_checks;
            let reference =
              match !verify_oracle_for_tests with
              | Some oracle -> oracle b
              | None -> (
                  match make_plan ~symbolic:false cp with
                  | plan -> count_with_plan cp plan
                  | exception Empty_set -> 0)
            in
            if reference <> n then begin
              Obs.incr c_verify_mismatches;
              let names =
                List.init b.Bset.nvis (Printf.sprintf "x%d")
              in
              raise
                (Verify_mismatch
                   {
                     fast = n;
                     reference;
                     set = Printer.set_to_string (Space.make "" names) [ b ];
                   })
            end
          end;
          n)

(* Satisfiability without caching, for the per-query [mem_bset] path
   (every query would otherwise insert a single-use cache entry). *)
let is_empty_compiled (cp : compiled) ~(b : Bset.t) : bool =
  (* Pure satisfiability: treat every position as existential. *)
  match make_plan cp with
  | plan ->
      let n = n_positions plan in
      if n = 0 then false
      else begin
        let value = Array.make n 0 in
        let sat_plan = { plan with nvis_positions = 0 } in
        not (exists_from sat_plan value 0)
      end
  | exception Empty_set -> true
  | exception Unbounded _ ->
      (* Some visible dim is unconstrained: the set is nonempty iff the
         rest is satisfiable.  Project everything out and retry. *)
      let all_ex = Bset.project ~keep:(Array.make b.Bset.nvis false) b in
      let cp' = Option.get (compile all_ex) in
      (match make_plan cp' with
      | exception Empty_set -> true
      | plan' ->
          let n = n_positions plan' in
          if n = 0 then false
          else begin
            let value = Array.make n 0 in
            not (exists_from { plan' with nvis_positions = 0 } value 0)
          end)

let is_empty_bset (b : Bset.t) : bool =
  match compile b with
  | None -> true
  | Some cp ->
      probe cp
        ~get:(fun e -> e.e_empty)
        ~set:(fun e v -> e.e_empty <- Some v)
        (fun () -> is_empty_compiled cp ~b)

let mem_bset (b : Bset.t) (point : int array) : bool =
  assert (Array.length point = b.Bset.nvis);
  let fixed = ref b in
  Array.iteri (fun dim v -> fixed := Bset.fix !fixed ~dim v) point;
  match compile !fixed with
  | None -> false
  | Some cp -> not (is_empty_compiled cp ~b:!fixed)

(* Iterate distinct visible tuples.  Uses [elim_vis:false] so that every
   visible variable has a position and full tuples can be reported. *)
let iter_bset (b : Bset.t) (f : int array -> unit) : unit =
  match compile ~elim_vis:false b with
  | None -> ()
  | Some cp -> (
      match make_plan cp with
      | exception Empty_set -> ()
      | plan ->
      let n = n_positions plan in
      if n = 0 then (if cp.nvis = 0 then f [||]) |> ignore
      else begin
        let value = Array.make n 0 in
        if plan.dedup then begin
          let tbl = Hashtbl.create 1024 in
          let rec go pos =
            if pos = n then begin
              Obs.incr c_points;
              let key = visible_key cp plan value in
              if not (Hashtbl.mem tbl key) then begin
                Hashtbl.add tbl key ();
                f key
              end
            end
            else begin
              let lb, ub = level_bounds plan value pos in
              if lb <= ub then
                if
                  plan.independent.(pos) && not cp.is_vis.(plan.order.(pos))
                then begin
                  value.(pos) <- lb;
                  go (pos + 1)
                end
                else
                  for v = lb to ub do
                    value.(pos) <- v;
                    go (pos + 1)
                  done
            end
          in
          go 0
        end
        else begin
          let rec go pos =
            if pos = plan.nvis_positions then begin
              Obs.incr c_points;
              if exists_from plan value pos then f (visible_key cp plan value)
            end
            else begin
              let lb, ub = level_bounds plan value pos in
              if lb <= ub then
                for v = lb to ub do
                  value.(pos) <- v;
                  go (pos + 1)
                done
            end
          in
          go 0
        end
      end)

let sample_bset (b : Bset.t) : int array option =
  let result = ref None in
  (try
     iter_bset b (fun p ->
         result := Some (Array.copy p);
         raise Exit)
   with Exit -> ());
  !result

(* A precompiled membership tester: compiles and plans once, then answers
   [mem] queries without per-query recompilation.  The query scratch is
   domain-local (one buffer per domain, reused across queries), which
   keeps testers shareable across the parallel work pool.  Falls back to
   [mem_bset] when the plan needs hash-based deduplication (which cannot
   happen for the fixed-visible queries we run, but keeps the function
   total). *)
let make_mem_bset (b : Bset.t) : int array -> bool =
  match compile ~elim_vis:false b with
  | None -> fun _ -> false
  | Some cp -> (
      match make_plan ~allow_unbounded_vis:true cp with
      | exception Empty_set -> fun _ -> false
      | exception Unbounded _ -> fun p -> mem_bset b p
      | plan ->
          if plan.dedup then fun p -> mem_bset b p
          else begin
            let n = n_positions plan in
            let nvisp = plan.nvis_positions in
            let scratch =
              Domain.DLS.new_key (fun () -> Array.make (max n 1) 0)
            in
            fun point ->
              let value = Domain.DLS.get scratch in
              let ok = ref true in
              let pos = ref 0 in
              while !ok && !pos < nvisp do
                let v = point.(plan.order.(!pos)) in
                let lb, ub = level_bounds plan value !pos in
                if v < lb || v > ub then ok := false
                else begin
                  value.(!pos) <- v;
                  incr pos
                end
              done;
              !ok && exists_from plan value nvisp
          end)

let make_mem_union (bs : Bset.t list) : int array -> bool =
  let testers = Array.of_list (List.map make_mem_bset bs) in
  let n = Array.length testers in
  fun p ->
    let rec go j = j < n && (testers.(j) p || go (j + 1)) in
    go 0

(* Shared by union counting and iteration: tester for membership in any
   of the first [upto] disjuncts, scanning a flat array (no closure-list
   walk per point). *)
let seen_in_earlier (testers : (int array -> bool) array) ~upto p =
  let rec go j = j < upto && (testers.(j) p || go (j + 1)) in
  go 0

(* Disjoint counting of a union of basic sets: count each disjunct's points
   that do not belong to any earlier disjunct.  The per-disjunct passes are
   independent given the testers, so they run on the parallel pool; the
   result is their (order-insensitive) sum, so parallelism cannot change
   the answer.  Union cardinalities are memoized like single counts, keyed
   by the multiset of disjunct keys. *)
let count_union (bs : Bset.t list) : int =
  match bs with
  | [] -> 0
  | [ b ] -> count_bset b
  | _ ->
      (* drop disjuncts that are syntactically empty; they contribute
         neither points nor cache-key information *)
      let live =
        List.filter_map
          (fun b -> Option.map (fun cp -> (b, cp)) (compile b))
          bs
      in
      let compute () =
        let arr = Array.of_list (List.map fst live) in
        let n = Array.length arr in
        let same_arity =
          let nv = arr.(0).Bset.nvis in
          Array.for_all (fun (b : Bset.t) -> b.Bset.nvis = nv) arr
        in
        let by_dedup () =
          let testers = Array.map make_mem_bset arr in
          let count_one i =
            let total = ref 0 in
            iter_bset arr.(i) (fun p ->
                if not (seen_in_earlier testers ~upto:i p) then incr total);
            !total
          in
          Array.fold_left ( + ) 0 (Tenet_util.Parallel.init n count_one)
        in
        if n <= 4 && same_arity then begin
          (* Inclusion–exclusion: 2^n - 1 intersection counts, each of
             which hits the closed-form path (and the cache) — no point
             of the union is ever visited.  Bounded at 4 disjuncts so
             the term count stays below the disjunct count's square;
             TENET's unions (spatial-neighbor reuse, halo overlaps) have
             2-4 disjuncts. *)
          let count_mask i =
            let m = i + 1 in
            let parts = ref [] and bits = ref 0 in
            for j = n - 1 downto 0 do
              if m land (1 lsl j) <> 0 then begin
                parts := arr.(j) :: !parts;
                incr bits
              end
            done;
            let inter =
              match !parts with
              | b :: rest -> List.fold_left Bset.meet b rest
              | [] -> assert false
            in
            let c = count_bset inter in
            if !bits land 1 = 1 then c else -c
          in
          let fast =
            Array.fold_left ( + ) 0
              (Tenet_util.Parallel.init ((1 lsl n) - 1) count_mask)
          in
          (* Under TENET_COUNT_VERIFY also certify the inclusion–exclusion
             combination itself (each term was already checked). *)
          if verify_mode () then begin
            Obs.incr c_verify_checks;
            let reference = by_dedup () in
            if reference <> fast then begin
              Obs.incr c_verify_mismatches;
              raise
                (Verify_mismatch
                   {
                     fast;
                     reference;
                     set =
                       Printf.sprintf
                         "inclusion-exclusion over a %d-disjunct union" n;
                   })
            end
          end;
          fast
        end
        else by_dedup ()
      in
      (match live with
      | [] -> 0
      | [ (b, _) ] -> count_bset b
      | _ ->
          if cache_bound = 0 then compute ()
          else begin
            let ukey =
              Array.of_list (List.map (fun (_, cp) -> key_of_compiled cp) live)
            in
            Array.sort compare ukey;
            Mutex.lock cache_mutex;
            let cached =
              match Utbl.find_opt union_cache ukey with
              | Some e ->
                  incr cache_tick;
                  e.u_tick <- !cache_tick;
                  Some e.u_card
              | None -> None
            in
            Mutex.unlock cache_mutex;
            match cached with
            | Some v ->
                Obs.incr c_cache_hits;
                v
            | None ->
                Obs.incr c_cache_misses;
                let v = compute () in
                Mutex.lock cache_mutex;
                if not (Utbl.mem union_cache ukey) then begin
                  make_room ();
                  incr cache_tick;
                  Utbl.add union_cache ukey
                    { u_card = v; u_tick = !cache_tick }
                end;
                Mutex.unlock cache_mutex;
                v
          end)

let iter_union (bs : Bset.t list) (f : int array -> unit) : unit =
  match bs with
  | [] -> ()
  | [ b ] -> iter_bset b f
  | _ ->
      let arr = Array.of_list bs in
      let n = Array.length arr in
      let testers = Array.make n (fun _ -> false) in
      for i = 0 to n - 1 do
        iter_bset arr.(i) (fun p ->
            if not (seen_in_earlier testers ~upto:i p) then f p);
        if i < n - 1 then testers.(i) <- make_mem_bset arr.(i)
      done

let mem_union (bs : Bset.t list) (p : int array) : bool =
  List.exists (fun b -> mem_bset b p) bs

let is_empty_union (bs : Bset.t list) : bool = List.for_all is_empty_bset bs

(* ------------------------------------------------------------------ *)
(* Parametric counting: cardinality as a quasi-polynomial in the       *)
(* leading visible dims (the "size parameters").                       *)
(* ------------------------------------------------------------------ *)

(* Parameters get a conservative assumed range when the caller supplies
   none.  The range matters twice: it feeds the interval certification
   of every symbolic side condition (so it must be bounded — interval
   arithmetic on machine ints would otherwise overflow at high degree),
   and it defines the region where the returned quasi-polynomial is
   guaranteed exact. *)
let default_param_range = (1, 4096)

let count_bset_param ~n_params ?assume (b : Bset.t) : Qpoly.t option =
  assert (n_params >= 0 && n_params <= b.Bset.nvis);
  let assume =
    match assume with
    | Some a ->
        assert (Array.length a = n_params);
        Array.iter (fun (lo, hi) -> assert (lo <= hi)) a;
        a
    | None -> Array.make n_params default_param_range
  in
  let nvars = Bset.nvars b in
  let range_cons =
    List.concat
      (List.init n_params (fun p ->
           let lo, hi = assume.(p) in
           let a_lo = Array.make nvars 0 in
           a_lo.(p) <- 1;
           let a_hi = Array.make nvars 0 in
           a_hi.(p) <- -1;
           [
             { a = a_lo; k = -lo; eq = false };
             { a = a_hi; k = hi; eq = false };
           ]))
  in
  let b = Bset.add_cons b range_cons in
  (* Under TENET_COUNT_VERIFY, spot-check the closed form against the
     concrete engine at a few in-range parameter assignments (each of
     which is itself cross-checked by [count_bset]'s own sanitizer). *)
  let verify qp =
    if verify_mode () && n_params > 0 then
      List.iter
        (fun step ->
          Obs.incr c_verify_checks;
          let vals = Array.map (fun (lo, hi) -> min (lo + step) hi) assume in
          let fixed = ref b in
          Array.iteri (fun p v -> fixed := Bset.fix !fixed ~dim:p v) vals;
          let reference = count_bset !fixed in
          let fast = Qpoly.eval (fun p -> vals.(p)) qp in
          if reference <> fast then begin
            Obs.incr c_verify_mismatches;
            let at =
              String.concat ","
                (Array.to_list (Array.map string_of_int vals))
            in
            raise
              (Verify_mismatch
                 {
                   fast;
                   reference;
                   set =
                     Printf.sprintf "parametric template instantiated at (%s)"
                       at;
                 })
          end)
        [ 0; 3 ]
  in
  (* A plan that resists symbolically can still yield an exact template
     when the set is empty for {e every} in-range parameter value (the
     emptiness query ranges over the parameter box too) — the usual case
     for inclusion–exclusion intersection terms of disjoint unions. *)
  let fallback () =
    if is_empty_bset b then begin
      Obs.incr c_tpl;
      Some Qpoly.zero
    end
    else begin
      Obs.incr c_tpl_fb;
      None
    end
  in
  match compile ~protect:n_params b with
  | None ->
      (* empty for every parameter value *)
      Obs.incr c_tpl;
      Some Qpoly.zero
  | Some cp -> (
      match make_plan ~symbolic:true cp with
      | exception Empty_set ->
          Obs.incr c_tpl;
          Some Qpoly.zero
      | exception Unbounded _ -> fallback ()
      | plan ->
          (* The greedy ordering seats bounded visible vars lowest-index
             first, so the protected parameters land at positions
             [0..n_params); check defensively rather than assume it. *)
          let seated =
            plan.nvis_positions >= n_params
            &&
            let ok = ref true in
            for p = 0 to n_params - 1 do
              if plan.order.(p) <> p then ok := false
            done;
            !ok
          in
          if plan.dedup || (not plan.sat_proven) || not seated then
            fallback ()
          else (
            match plan.sym.(n_params) with
            | None -> fallback ()
            | Some qp ->
                (* [sym.(n_params)] counts the visible suffix past the
                   parameters as a quasi-polynomial in positions
                   [0..n_params) — which, seated, are the parameter dims
                   themselves. *)
                verify qp;
                Obs.incr c_tpl;
                Some qp))

let count_union_param ~n_params ?assume (bs : Bset.t list) : Qpoly.t option =
  match bs with
  | [] -> Some Qpoly.zero
  | [ b ] -> count_bset_param ~n_params ?assume b
  | _ ->
      let arr = Array.of_list bs in
      let n = Array.length arr in
      let same_arity =
        let nv = arr.(0).Bset.nvis in
        Array.for_all (fun (b : Bset.t) -> b.Bset.nvis = nv) arr
      in
      if n > 4 || not same_arity then begin
        Obs.incr c_tpl_fb;
        None
      end
      else begin
        (* Inclusion–exclusion, mirroring [count_union]'s fast path:
           every intersection must itself admit a parametric closed
           form, else the whole union falls back. *)
        let acc = ref (Some Qpoly.zero) in
        for i = 0 to (1 lsl n) - 2 do
          match !acc with
          | None -> ()
          | Some sofar ->
              let m = i + 1 in
              let parts = ref [] and bits = ref 0 in
              for j = n - 1 downto 0 do
                if m land (1 lsl j) <> 0 then begin
                  parts := arr.(j) :: !parts;
                  incr bits
                end
              done;
              let inter =
                match !parts with
                | b :: rest -> List.fold_left Bset.meet b rest
                | [] -> assert false
              in
              acc :=
                (match count_bset_param ~n_params ?assume inter with
                | None -> None
                | Some qp ->
                    Some
                      (if !bits land 1 = 1 then Qpoly.add sofar qp
                       else Qpoly.sub sofar qp))
        done;
        !acc
      end

(* Concrete-evaluation engine: computes exactly the same volume and
   utilization metrics as the relational path ({!Volumes} over {!Tenet_isl}
   counting), but by walking the iteration domain once and looking
   adjacent spacetime-stamps up in a hash table.

   Equivalence with the relational engine is enforced by property tests;
   this engine exists because polyhedral counting of the composed reuse
   relations costs seconds per tensor, which is too slow for design-space
   exploration sweeps.  Sets with more than ~10^8 instances should use
   {!Scaled} analysis instead. *)

module Isl = Tenet_isl
module Ir = Tenet_ir
module Arch = Tenet_arch
module Df = Tenet_dataflow
module Obs = Tenet_obs

let c_analyses = Obs.counter "concrete.analyses"
let c_instances = Obs.counter "concrete.instances_walked"

exception Invalid_dataflow of string

type compiled = {
  op : Ir.Tensor_op.t;
  df : Df.Dataflow.t;
  iters : (int * int) array; (* (lo, extent) per iterator *)
  n_iters : int;
  vals : int array; (* current iterator values (mutable scratch) *)
  env : string -> int;
  lookup : string -> int; (* iterator name -> index in [vals] *)
  space_exprs : Isl.Aff.t array;
  time_exprs : Isl.Aff.t array;
  (* staged evaluators of the same expressions over [vals] (no name
     resolution or AST walk per instance — the walk is the hot loop) *)
  space_evals : (int array -> int) array;
  time_evals : (int array -> int) array;
  (* mixed-radix encodings *)
  space_base : (int * int) array; (* (lo, extent) per space dim *)
  time_base : (int * int) array;
}

let compile (op : Ir.Tensor_op.t) (df : Df.Dataflow.t) : compiled =
  let iters =
    Array.of_list
      (List.map (fun it -> (it.Ir.Tensor_op.lo, Ir.Tensor_op.extent it)) op.Ir.Tensor_op.iters)
  in
  let n_iters = Array.length iters in
  let vals = Array.make n_iters 0 in
  let index = Hashtbl.create 8 in
  List.iteri
    (fun i it -> Hashtbl.replace index it.Ir.Tensor_op.iname i)
    op.Ir.Tensor_op.iters;
  let lookup name = Hashtbl.find index name in
  let env name = vals.(lookup name) in
  let ienv name = Ir.Tensor_op.iter_bounds op name in
  let to_base e =
    let lo, hi = Isl.Aff.interval ienv e in
    (lo, hi - lo + 1)
  in
  let stage e = Isl.Aff.compile_eval ~lookup e in
  {
    op;
    df;
    iters;
    n_iters;
    vals;
    env;
    lookup;
    space_exprs = Array.of_list df.Df.Dataflow.space;
    time_exprs = Array.of_list df.Df.Dataflow.time;
    space_evals = Array.of_list (List.map stage df.Df.Dataflow.space);
    time_evals = Array.of_list (List.map stage df.Df.Dataflow.time);
    space_base = Array.of_list (List.map to_base df.Df.Dataflow.space);
    time_base = Array.of_list (List.map to_base df.Df.Dataflow.time);
  }

(* Mixed-radix encoding of a tuple given (lo, extent) bases; -1 when any
   coordinate is out of range (encoding a nonexistent stamp). *)
let encode (base : (int * int) array) (tup : int array) : int =
  let acc = ref 0 in
  let ok = ref true in
  for i = 0 to Array.length base - 1 do
    let lo, ext = base.(i) in
    let v = tup.(i) - lo in
    if v < 0 || v >= ext then ok := false else acc := (!acc * ext) + v
  done;
  if !ok then !acc else -1

let encode_iters (c : compiled) : int =
  let acc = ref 0 in
  for i = 0 to c.n_iters - 1 do
    let lo, ext = c.iters.(i) in
    acc := (!acc * ext) + (c.vals.(i) - lo)
  done;
  !acc

let decode_iters (c : compiled) (code : int) (out : int array) : unit =
  let code = ref code in
  for i = c.n_iters - 1 downto 0 do
    let lo, ext = c.iters.(i) in
    out.(i) <- (!code mod ext) + lo;
    code := !code / ext
  done

(* Decode a mixed-radix code (from [encode]) back into a tuple. *)
let decode (base : (int * int) array) (code : int) (out : int array) : unit =
  let code = ref code in
  for i = Array.length base - 1 downto 0 do
    let lo, ext = base.(i) in
    out.(i) <- (!code mod ext) + lo;
    code := !code / ext
  done

(* Iterate an iteration box, calling [f] with [vals] filled; the visit
   order is exactly increasing [encode_iters] code (outermost dim most
   significant), which the shared-needs table below relies on. *)
let iter_box (iters : (int * int) array) (vals : int array) (f : unit -> unit)
    : unit =
  let n = Array.length iters in
  let rec go i =
    if i = n then f ()
    else begin
      let lo, ext = iters.(i) in
      for v = lo to lo + ext - 1 do
        vals.(i) <- v;
        go (i + 1)
      done
    end
  in
  go 0

(* Iterate the whole iteration box, calling [f] with [c.vals] filled. *)
let iter_instances (c : compiled) (f : unit -> unit) : unit =
  iter_box c.iters c.vals f

let eval_tuple (c : compiled) (exprs : Isl.Aff.t array) (out : int array) :
    unit =
  for i = 0 to Array.length exprs - 1 do
    out.(i) <- Isl.Aff.eval c.env exprs.(i)
  done

(* Staged variant of [eval_tuple] for the walk loops. *)
let eval_staged (c : compiled) (evals : (int array -> int) array)
    (out : int array) : unit =
  for i = 0 to Array.length evals - 1 do
    out.(i) <- evals.(i) c.vals
  done

(* Spatial predecessor PEs (mixed-radix-encoded) per destination PE, from
   the (already lex-filtered when interval = 0) interconnect relation.
   Memoized per (topology, PE-array dims): a DSE sweep calls [analyze]
   once per candidate against the same architecture, and re-enumerating
   the interconnect relation dominated small-layer analyses.  The memo
   table is mutex-guarded (analyses run on the parallel work pool); the
   cached arrays are never mutated after construction. *)
let pred_cache : (Arch.Interconnect.t * int array, int list array) Hashtbl.t =
  Hashtbl.create 16

let pred_cache_mutex = Mutex.create ()

let pred_pe_keys (spec : Arch.Spec.t) : int list array =
  let pe = spec.Arch.Spec.pe in
  let dims = Arch.Pe_array.dims pe in
  let key = (spec.Arch.Spec.topology, dims) in
  Mutex.lock pred_cache_mutex;
  let cached = Hashtbl.find_opt pred_cache key in
  Mutex.unlock pred_cache_mutex;
  match cached with
  | Some a -> a
  | None ->
      let rel = Df.Spacetime.reuse_pe_relation pe spec.Arch.Spec.topology in
      let base = Array.map (fun d -> (0, d)) dims in
      let out = Array.make (max 1 (Arch.Pe_array.size pe)) [] in
      Isl.Map.iter_pairs
        (fun src dst ->
          let k = encode base dst in
          if k >= 0 then out.(k) <- encode base src :: out.(k))
        rel;
      Mutex.lock pred_cache_mutex;
      if not (Hashtbl.mem pred_cache key) then Hashtbl.add pred_cache key out;
      Mutex.unlock pred_cache_mutex;
      out

(* For tests and cold-cache measurements. *)
let clear_pred_cache () =
  Mutex.lock pred_cache_mutex;
  Hashtbl.reset pred_cache;
  Mutex.unlock pred_cache_mutex

(* ------------------------------------------------------------------ *)
(* Reusable evaluation context.                                        *)
(* ------------------------------------------------------------------ *)

(* Per-tensor element encodings: one mixed-radix base per subscript
   position, wide enough for every access to the tensor. *)
let tensor_bases (op : Ir.Tensor_op.t) (accs : Ir.Tensor_op.access array) :
    (int * int) array =
  let ienv name = Ir.Tensor_op.iter_bounds op name in
  let arity = List.length (accs.(0)).Ir.Tensor_op.subscripts in
  Array.init arity (fun i ->
      let lo = ref max_int and hi = ref min_int in
      Array.iter
        (fun (a : Ir.Tensor_op.access) ->
          let l, h =
            Isl.Aff.interval ienv (List.nth a.Ir.Tensor_op.subscripts i)
          in
          if l < !lo then lo := l;
          if h > !hi then hi := h)
        accs;
      (!lo, !hi - !lo + 1))

(* Per-tensor element encoders, for every tensor of [op] in
   [Ir.Tensor_op.tensors] order: the tensor's mixed-radix base
   ([tensor_bases]; ascending code is lexicographic element order) and,
   per access, a staged closure computing the element's code straight
   from an iterator-value array laid out like [compiled.vals].  The
   layout depends only on [op], so the closures serve every dataflow's
   walk.  Shared with the cycle-level simulator. *)
let element_encoders (op : Ir.Tensor_op.t) :
    (int * int) array array * (int array -> int) array array =
  let tensors = Array.of_list (Ir.Tensor_op.tensors op) in
  let accs =
    Array.map (fun t -> Array.of_list (Ir.Tensor_op.accesses_of op t)) tensors
  in
  let bases = Array.map (tensor_bases op) accs in
  let index = Hashtbl.create 8 in
  List.iteri
    (fun i it -> Hashtbl.replace index it.Ir.Tensor_op.iname i)
    op.Ir.Tensor_op.iters;
  let lookup name = Hashtbl.find index name in
  let encs =
    Array.mapi
      (fun ti accs_ti ->
        let b = bases.(ti) in
        let arity = Array.length b in
        Array.map
          (fun (a : Ir.Tensor_op.access) ->
            let subs =
              Array.of_list
                (List.map
                   (Isl.Aff.compile_eval ~lookup)
                   a.Ir.Tensor_op.subscripts)
            in
            fun vals ->
              let acc = ref 0 in
              for i = 0 to arity - 1 do
                let lo, ext = b.(i) in
                acc := (!acc * ext) + (subs.(i) vals - lo)
              done;
              !acc)
          accs_ti)
      accs
  in
  (bases, encs)

(* Everything the analysis needs that depends only on the (architecture,
   operator, evaluation options) triple — not on the candidate dataflow.
   A DSE sweep scores hundreds of dataflows against one such triple; the
   context is built once and shared, and each candidate pays only the
   dataflow-dependent part of the walk.  A context is immutable after
   construction, so sharing one across the parallel work pool is safe. *)
type ctx = {
  x_spec : Arch.Spec.t;
  x_op : Ir.Tensor_op.t;
  x_adjacency : Df.Spacetime.adjacency;
  x_window : int;
  x_validate : bool;
  x_n_instances : int;
  x_tensors : string array;
  x_n_tensors : int;
  x_outputs : string list;
  x_fspace : int; (* widest per-tensor element space *)
  x_fenc_evals : (int array -> int) array array; (* per tensor, per access *)
  x_pe_base : (int * int) array;
  x_pe_size : int;
  x_preds : int list array; (* pred_pe_keys, resolved once *)
  x_dt_spatial : int;
  x_kspace : int;
  x_use_direct : bool;
  x_needs : (int array * int array) array option;
      (* Per-tensor [(offs, flat)]: instance code [i] touches elements
         [flat.(offs.(i)) .. flat.(offs.(i + 1) - 1)] (deduplicated,
         sorted when the tensor has several accesses).  Element
         encodings are dataflow-independent, so this one walk of the
         iteration box serves every candidate the context scores.
         [None] when the layer is too large for the table to pay. *)
}

(* Caps on the shared element-needs table: past a few million instances
   its build cost and footprint outweigh re-evaluating the accesses per
   candidate, and one-shot [analyze] calls never build it at all. *)
let needs_max_instances = 2_000_000
let needs_max_cells = 8_000_000

let build_needs (op : Ir.Tensor_op.t)
    (fenc_evals : (int array -> int) array array) :
    (int array * int array) array option =
  let n_instances = Ir.Tensor_op.n_instances op in
  let n_tensors = Array.length fenc_evals in
  let cells =
    Array.fold_left (fun a fs -> a + (n_instances * Array.length fs)) 0
      fenc_evals
  in
  if n_instances > needs_max_instances || cells > needs_max_cells then None
  else begin
    let iters =
      Array.of_list
        (List.map
           (fun it -> (it.Ir.Tensor_op.lo, Ir.Tensor_op.extent it))
           op.Ir.Tensor_op.iters)
    in
    let vals = Array.make (Array.length iters) 0 in
    let offs = Array.init n_tensors (fun _ -> Array.make (n_instances + 1) 0) in
    let flats =
      Array.init n_tensors (fun ti ->
          Array.make (n_instances * Array.length fenc_evals.(ti)) 0)
    in
    let lens = Array.make n_tensors 0 in
    let inst = ref 0 in
    iter_box iters vals (fun () ->
        for ti = 0 to n_tensors - 1 do
          (match fenc_evals.(ti) with
          | [| f |] ->
              flats.(ti).(lens.(ti)) <- f vals;
              lens.(ti) <- lens.(ti) + 1
          | fs ->
              List.iter
                (fun fenc ->
                  flats.(ti).(lens.(ti)) <- fenc;
                  lens.(ti) <- lens.(ti) + 1)
                (List.sort_uniq compare
                   (Array.to_list (Array.map (fun f -> f vals) fs))));
          offs.(ti).(!inst + 1) <- lens.(ti)
        done;
        incr inst);
    Some
      (Array.init n_tensors (fun ti ->
           (offs.(ti), Array.sub flats.(ti) 0 lens.(ti))))
  end

let context ?(adjacency : Df.Spacetime.adjacency = `Inner_step)
    ?(validate = true) ?(window = 1) ?(share = true) (spec : Arch.Spec.t)
    (op : Ir.Tensor_op.t) : ctx =
  let pe = spec.Arch.Spec.pe in
  let tensors = Array.of_list (Ir.Tensor_op.tensors op) in
  let n_tensors = Array.length tensors in
  let bases, fenc_evals = element_encoders op in
  let fspace =
    Array.fold_left
      (fun acc b -> max acc (Array.fold_left (fun a (_, e) -> a * e) 1 b))
      1 bases
  in
  let pe_size = Arch.Pe_array.size pe in
  let kspace = pe_size * n_tensors * fspace in
  {
    x_spec = spec;
    x_op = op;
    x_adjacency = adjacency;
    x_window = window;
    x_validate = validate;
    x_n_instances = Ir.Tensor_op.n_instances op;
    x_tensors = tensors;
    x_n_tensors = n_tensors;
    x_outputs = Ir.Tensor_op.outputs op;
    x_fspace = fspace;
    x_fenc_evals = fenc_evals;
    x_pe_base = Array.map (fun d -> (0, d)) (Arch.Pe_array.dims pe);
    x_pe_size = pe_size;
    x_preds = pred_pe_keys spec;
    x_dt_spatial = Arch.Interconnect.interval spec.Arch.Spec.topology;
    x_kspace = kspace;
    (* Direct addressing also requires validated space bounds: only
       validation guarantees every pkey is in range. *)
    x_use_direct = validate && kspace > 0 && kspace <= 50_000_000;
    x_needs = (if share then build_needs op fenc_evals else None);
  }

(* ------------------------------------------------------------------ *)
(* Cheap time-only profile (DSE dominance bounds).                     *)
(* ------------------------------------------------------------------ *)

type profile = { p_timestamps : int; p_conflict : bool }

(* Count distinct time-stamps and detect spacetime conflicts without
   touching tensor accesses: a fraction of the full walk's cost, enough
   for a latency lower bound ([latency >= n_timestamps]) and for
   discarding invalid candidates before they reach the full analysis. *)
let time_profile (ctx : ctx) (df : Df.Dataflow.t) : profile =
  let c = compile ctx.x_op df in
  let r = Array.length c.space_exprs and m = Array.length c.time_exprs in
  let p_scratch = Array.make r 0 and t_scratch = Array.make m 0 in
  let seen_t : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let seen_tp : (int, unit) Hashtbl.t = Hashtbl.create 4096 in
  let conflict = ref false in
  iter_instances c (fun () ->
      eval_staged c c.space_evals p_scratch;
      eval_staged c c.time_evals t_scratch;
      let tcode = encode c.time_base t_scratch in
      let pkey = encode ctx.x_pe_base p_scratch in
      if not (Hashtbl.mem seen_t tcode) then Hashtbl.add seen_t tcode ();
      let k = (tcode * (ctx.x_pe_size + 1)) + (pkey + 1) in
      if Hashtbl.mem seen_tp k then conflict := true
      else Hashtbl.add seen_tp k ());
  { p_timestamps = max 1 (Hashtbl.length seen_t); p_conflict = !conflict }

(* ------------------------------------------------------------------ *)
(* The full analysis.                                                  *)
(* ------------------------------------------------------------------ *)

let analyze_in (ctx : ctx) (df : Df.Dataflow.t) : Metrics.t =
  Obs.with_span ~args:[ ("dataflow", df.Df.Dataflow.name) ] "concrete.analyze"
  @@ fun () ->
  Obs.incr c_analyses;
  let spec = ctx.x_spec and op = ctx.x_op in
  let adjacency = ctx.x_adjacency and window = ctx.x_window in
  let validate = ctx.x_validate in
  let c = compile op df in
  let pe = spec.Arch.Spec.pe in
  if ctx.x_n_instances > 200_000_000 then
    raise
      (Invalid_dataflow
         (Printf.sprintf
            "%s: %d instances is too large to enumerate; use Scaled.analyze \
             (CLI: --scale-dims) for layers of this size"
            df.Df.Dataflow.name ctx.x_n_instances));
  (* bounds validation *)
  if validate then begin
    if Df.Dataflow.n_space df <> Arch.Pe_array.rank pe then
      raise
        (Invalid_dataflow
           (Printf.sprintf "%s: space rank %d vs array rank %d"
              df.Df.Dataflow.name (Df.Dataflow.n_space df)
              (Arch.Pe_array.rank pe)));
    let dims = Arch.Pe_array.dims pe in
    List.iteri
      (fun i (lo, hi) ->
        if lo < 0 || hi >= dims.(i) then
          raise
            (Invalid_dataflow
               (Printf.sprintf "%s: space dim %d spans [%d,%d] outside [0,%d)"
                  df.Df.Dataflow.name i lo hi dims.(i))))
      (Df.Dataflow.space_bounds op df)
  end;
  let r = Array.length c.space_exprs and m = Array.length c.time_exprs in
  let pe_base = ctx.x_pe_base in
  let p_scratch = Array.make r 0 and t_scratch = Array.make m 0 in
  (* pass 1: bucket instances by time-stamp code *)
  let buckets : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 4096 in
  let tcodes = ref [] in
  Obs.with_span "concrete.bucket" (fun () ->
      iter_instances c (fun () ->
          eval_staged c c.space_evals p_scratch;
          eval_staged c c.time_evals t_scratch;
          let tcode = encode c.time_base t_scratch in
          let pkey = encode pe_base p_scratch in
          let inst = encode_iters c in
          match Hashtbl.find_opt buckets tcode with
          | Some l -> l := (pkey, inst) :: !l
          | None ->
              Hashtbl.add buckets tcode (ref [ (pkey, inst) ]);
              tcodes := tcode :: !tcodes));
  Obs.add c_instances ctx.x_n_instances;
  let order = List.sort compare !tcodes in
  let preds_enc = ctx.x_preds in
  let dt_spatial = ctx.x_dt_spatial in
  let tensors = ctx.x_tensors in
  let n_tensors = ctx.x_n_tensors in
  let fspace = ctx.x_fspace in
  (* pe/tensor/element key for the last-touch table *)
  let key ~pkey ~ti fenc = (((pkey * n_tensors) + ti) * fspace) + fenc in
  (* element encodings of the instance currently in c.vals, deduplicated *)
  let eval_fenc ti : int array =
    match ctx.x_fenc_evals.(ti) with
    | [| f |] -> [| f c.vals |]
    | fs ->
        Array.of_list
          (List.sort_uniq compare
             (Array.to_list (Array.map (fun f -> f c.vals) fs)))
  in
  (* The last-touch / same-stamp-needs / footprint tables are the inner
     loop's only lookups.  When the (PE, tensor, element) key space is
     small enough they are flat arrays (direct addressing, no hashing);
     otherwise hash tables. *)
  let kspace = ctx.x_kspace in
  let use_direct = ctx.x_use_direct in
  let lt_get, lt_set =
    if use_direct then begin
      let a = Array.make kspace min_int in
      ((fun k -> a.(k)), fun k t -> a.(k) <- t)
    end
    else begin
      let h : (int, int) Hashtbl.t = Hashtbl.create 4096 in
      ( (fun k -> match Hashtbl.find_opt h k with Some t -> t | None -> min_int),
        fun k t -> Hashtbl.replace h k t )
    end
  in
  (* same-stamp needs (interval-0 wire sharing), generation-stamped so one
     allocation serves every stamp *)
  let sn_next, sn_mark, sn_mem =
    if use_direct then begin
      let a = Array.make (if dt_spatial = 0 then kspace else 0) 0 in
      let gen = ref 0 in
      ( (fun () -> incr gen),
        (fun k -> a.(k) <- !gen),
        fun k -> a.(k) = !gen )
    end
    else begin
      let h : (int, unit) Hashtbl.t = Hashtbl.create 64 in
      ( (fun () -> Hashtbl.reset h),
        (fun k -> Hashtbl.replace h k ()),
        fun k -> Hashtbl.mem h k )
    end
  in
  let inner_ext = if m = 0 then 1 else snd c.time_base.(m - 1) in
  let same_outer a b =
    match adjacency with
    | `Lex_step -> true
    | `Inner_step -> a / inner_ext = b / inner_ext
  in
  let totals = Array.make n_tensors 0 in
  let reuse_t = Array.make n_tensors 0 in
  let reuse_s = Array.make n_tensors 0 in
  (* distinct elements per tensor (footprints), collected on the fly *)
  let touch, footprint =
    if use_direct then begin
      let marks = Array.init n_tensors (fun _ -> Bytes.make fspace '\000') in
      let counts = Array.make n_tensors 0 in
      ( (fun ti fenc ->
          let m = marks.(ti) in
          if Bytes.get m fenc = '\000' then begin
            Bytes.set m fenc '\001';
            counts.(ti) <- counts.(ti) + 1
          end),
        fun ti -> counts.(ti) )
    end
    else begin
      let tbls : (int, unit) Hashtbl.t array =
        Array.init n_tensors (fun _ -> Hashtbl.create 1024)
      in
      ( (fun ti fenc -> Hashtbl.replace tbls.(ti) fenc ()),
        fun ti -> Hashtbl.length tbls.(ti) )
    end
  in
  let busiest = ref 0 in
  let conflict = ref false in
  let stamped_cycles = ref 0 in
  let iv = Array.make c.n_iters 0 in
  (* pass 2: walk stamps in lexicographic order, checking each element
     against the last time this PE (temporal window) or a predecessor PE
     (spatial, exact interconnect latency) touched it.  The per-instance
     element lists come from the context's shared needs table when it
     exists; otherwise each instance is decoded and its accesses
     re-evaluated, exactly as the table builder would have. *)
  Obs.with_span "concrete.walk" (fun () ->
      List.iter
        (fun tcode ->
          let insts = !(Hashtbl.find buckets tcode) in
          busiest := max !busiest (List.length insts);
          let stamp_unique = ref 0 in
          (* conflict check: two instances on one PE in one stamp *)
          let seen_pe = Hashtbl.create 16 in
          List.iter
            (fun (pkey, _) ->
              if Hashtbl.mem seen_pe pkey then conflict := true
              else Hashtbl.add seen_pe pkey ())
            insts;
          let needs =
            match ctx.x_needs with
            | Some tabs ->
                List.map
                  (fun (pkey, inst) ->
                    ( pkey,
                      Array.init n_tensors (fun ti ->
                          let offs, flat = tabs.(ti) in
                          Array.sub flat
                            offs.(inst)
                            (offs.(inst + 1) - offs.(inst))) ))
                  insts
            | None ->
                List.map
                  (fun (pkey, inst) ->
                    decode_iters c inst iv;
                    Array.blit iv 0 c.vals 0 c.n_iters;
                    (pkey, Array.init n_tensors eval_fenc))
                  insts
          in
          (* same-stamp needs, for interval-0 wire sharing *)
          if dt_spatial = 0 then begin
            sn_next ();
            List.iter
              (fun (pkey, per_tensor) ->
                Array.iteri
                  (fun ti fencs ->
                    Array.iter
                      (fun fenc -> sn_mark (key ~pkey ~ti fenc))
                      fencs)
                  per_tensor)
              needs
          end;
          List.iter
            (fun (pkey, per_tensor) ->
              let plist =
                if pkey >= 0 && pkey < Array.length preds_enc then
                  preds_enc.(pkey)
                else []
              in
              Array.iteri
                (fun ti fencs ->
                  Array.iter
                    (fun fenc ->
                      totals.(ti) <- totals.(ti) + 1;
                      touch ti fenc;
                      let temporal =
                        m > 0
                        &&
                        let last = lt_get (key ~pkey ~ti fenc) in
                        last <> min_int
                        && tcode - last <= window
                        && same_outer tcode last
                      in
                      if temporal then reuse_t.(ti) <- reuse_t.(ti) + 1
                      else begin
                        let spatial =
                          if dt_spatial = 0 then
                            List.exists
                              (fun p' -> sn_mem (key ~pkey:p' ~ti fenc))
                              plist
                          else
                            List.exists
                              (fun p' ->
                                let last = lt_get (key ~pkey:p' ~ti fenc) in
                                last <> min_int
                                && tcode - last = dt_spatial
                                && same_outer tcode last)
                              plist
                        in
                        if spatial then reuse_s.(ti) <- reuse_s.(ti) + 1
                        else incr stamp_unique
                      end)
                    fencs)
                per_tensor)
            needs;
          stamped_cycles :=
            !stamped_cycles
            + max 1
                ((!stamp_unique + spec.Arch.Spec.bandwidth - 1)
                / spec.Arch.Spec.bandwidth);
          (* commit this stamp's touches *)
          List.iter
            (fun (pkey, per_tensor) ->
              Array.iteri
                (fun ti fencs ->
                  Array.iter
                    (fun fenc -> lt_set (key ~pkey ~ti fenc) tcode)
                    fencs)
                per_tensor)
            needs)
        order);
  if validate && !conflict then
    raise
      (Invalid_dataflow
         (Printf.sprintf "%s: two instances share a spacetime-stamp"
            df.Df.Dataflow.name));
  let per_tensor =
    List.mapi
      (fun ti tensor ->
        let total = totals.(ti) in
        let temporal_reuse = reuse_t.(ti) in
        let spatial_reuse = reuse_s.(ti) in
        let direction =
          if List.mem tensor ctx.x_outputs then Ir.Tensor_op.Write
          else Ir.Tensor_op.Read
        in
        {
          Metrics.tensor;
          direction;
          volumes =
            {
              Metrics.total;
              temporal_reuse;
              spatial_reuse;
              unique = total - temporal_reuse - spatial_reuse;
            };
          footprint = footprint ti;
        })
      (Array.to_list tensors)
  in
  Metrics.assemble ~spec ~dataflow:df.Df.Dataflow.name ~per_tensor
    ~n_instances:ctx.x_n_instances ~n_timestamps:(Hashtbl.length buckets)
    ~busiest:!busiest ~stamped_cycles:!stamped_cycles ()

let analyze ?(adjacency : Df.Spacetime.adjacency = `Inner_step)
    ?(validate = true) ?(window = 1) (spec : Arch.Spec.t)
    (op : Ir.Tensor_op.t) (df : Df.Dataflow.t) : Metrics.t =
  analyze_in (context ~adjacency ~validate ~window ~share:false spec op) df

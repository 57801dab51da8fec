(* Concrete-evaluation engine: computes exactly the same volume and
   utilization metrics as the relational path ({!Volumes} over {!Tenet_isl}
   counting), but by walking the iteration domain once and looking
   adjacent spacetime-stamps up in flat tables.

   Equivalence with the relational engine is enforced by property tests;
   this engine exists because polyhedral counting of the composed reuse
   relations costs seconds per tensor, which is too slow for design-space
   exploration sweeps.  Sets with more than ~10^8 instances should use
   {!Scaled} analysis instead.

   Representation.  Stamps, PEs and tensor elements are mixed-radix int
   codes (ascending code = lexicographic order); every code space is
   sized with overflow-checked products and refused past the int range,
   so no code wraps.  Pass 1 stores each instance's time code and PE key
   in int arrays and orders the instances by time code: a counting sort,
   or an index sort when the time-code space dwarfs the instance count.
   Pass 2 walks each stamp's run of instances against the last-touch,
   same-stamp and footprint tables.  Those tables and pass 1's arrays
   live in a scratch record the evaluation context owns; every mark a
   walk writes carries an epoch advanced before the walk, so one record
   serves walk after walk without being cleared.  test/golden/
   concrete_zoo.txt pins the outputs. *)

module Isl = Tenet_isl
module Ir = Tenet_ir
module Arch = Tenet_arch
module Df = Tenet_dataflow
module Obs = Tenet_obs

let c_analyses = Obs.counter "concrete.analyses"
let c_instances = Obs.counter "concrete.instances_walked"
let c_profiles = Obs.counter "concrete.profiles"
let c_sort_fallbacks = Obs.counter "concrete.sort_fallbacks"
let c_hashed_walks = Obs.counter "concrete.hashed_walks"

exception Invalid_dataflow of string

(* Number of codes of a mixed-radix space with these extents, refused
   past the int range, where codes would wrap; [what] names the space. *)
let code_space (what : string) (extents : int array) : int =
  Array.fold_left
    (fun acc e ->
      let e = max 0 e in
      if e > 0 && acc > max_int / e then
        raise
          (Invalid_dataflow
             (Printf.sprintf "%s of %s codes is past the int range" what
                (String.concat " x "
                   (Array.to_list (Array.map string_of_int extents)))))
      else acc * e)
    1 extents

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
  time_base : (int * int) array; (* mixed-radix (lo, extent) per time dim *)
  t_space : int; (* number of time codes *)
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
  let time_base = Array.of_list (List.map to_base df.Df.Dataflow.time) in
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
    time_base;
    t_space =
      code_space
        (df.Df.Dataflow.name ^ ": time-stamp space")
        (Array.map snd time_base);
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

(* [encode] of the tuple the staged evaluators [evals] give on [vals]. *)
let encode_staged (base : (int * int) array)
    (evals : (int array -> int) array) (vals : int array) : int =
  let acc = ref 0 in
  let ok = ref true in
  for i = 0 to Array.length base - 1 do
    let lo, ext = base.(i) in
    let v = evals.(i) vals - lo in
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

(* Sort [a.(off) .. a.(off + len - 1)] ascending and drop duplicates in
   place; returns the distinct count.  A span is one instance's accesses
   to one tensor: a handful of codes. *)
let sort_uniq_span (a : int array) off len =
  for i = off + 1 to off + len - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= off && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done;
  if len = 0 then 0
  else begin
    let w = ref (off + 1) in
    for i = off + 1 to off + len - 1 do
      if a.(i) <> a.(!w - 1) then begin
        a.(!w) <- a.(i);
        incr w
      end
    done;
    !w - off
  end

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
   ([tensor_bases]; ascending code is lexicographic element order), its
   number of codes (refused past the int range) and, per access, a
   staged closure computing the element's code straight from an
   iterator-value array laid out like [compiled.vals].  The layout
   depends only on [op], so the closures serve every dataflow's walk.
   Shared with the cycle-level simulator. *)
let element_encoders (op : Ir.Tensor_op.t) :
    (int * int) array array * int array * (int array -> int) array array =
  let tensors = Array.of_list (Ir.Tensor_op.tensors op) in
  let accs =
    Array.map (fun t -> Array.of_list (Ir.Tensor_op.accesses_of op t)) tensors
  in
  let bases = Array.map (tensor_bases op) accs in
  let spaces =
    Array.mapi
      (fun ti b ->
        code_space
          (Printf.sprintf "tensor %s: element space" tensors.(ti))
          (Array.map snd b))
      bases
  in
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
  (bases, spaces, encs)

(* Per-walk working storage, owned by a context and used by one walk at
   a time.  Pass 1's arrays have one cell per instance.  The tables of
   pass 2 are direct-addressed arrays when the context's key space is
   small enough ([x_use_direct]), hash tables otherwise (emptied before
   each walk).  A cell of [pe_mark], [last], [same] or [seen] is current
   only when it holds a mark at or above the epoch of the walk reading
   it: each walk takes the marks [epoch .. epoch + stamps] (stamp s
   marks [epoch + s], footprints [epoch + stamps]) and advances [epoch]
   past them before it writes any. *)
type scratch = {
  mutable epoch : int;
  tcode : int array; (* time code per instance *)
  pkey : int array; (* PE key per instance (-1: outside the array) *)
  order : int array; (* instances in stamp order, ascending within one *)
  codes : int array; (* time code per stamp *)
  starts : int array; (* stamp s: order.(starts.(s)) .. starts.(s + 1) - 1 *)
  mutable counts : int array; (* counting-sort histogram, grown on demand *)
  pe_mark : int array; (* conflict check, indexed by pkey + 1 *)
  last : int array; (* (PE, tensor, element) key -> mark of last touch *)
  same : int array; (* key -> mark of the stamp needing it (interval 0) *)
  seen : int array; (* tensor * fspace + element -> footprint mark *)
  last_h : (int, int) Hashtbl.t;
  same_h : (int, int) Hashtbl.t;
  seen_h : (int, int) Hashtbl.t;
  (* one stamp's decoded element codes when the context has no shared
     needs table: per tensor, slot j's codes are
     buf.(ti).(boffs.(ti).(j)) .. boffs.(ti).(j + 1) - 1 *)
  mutable rows : int;
  mutable buf : int array array;
  mutable boffs : int array array;
}

(* Everything the analysis needs that depends only on the (architecture,
   operator, evaluation options) triple — not on the candidate dataflow.
   A DSE sweep scores hundreds of dataflows against one such triple; the
   context is built once and shared, and each candidate pays only the
   dataflow-dependent part of the walk.  Apart from its free list of
   scratch records, a context is immutable after construction; a walk
   pops a record (or makes one) and pushes it back, so each domain
   walking the context at once has its own and sharing one context
   across the parallel work pool is safe. *)
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
  (* pred_pe_keys as CSR: PE p's predecessors are
     x_pred_pes.(x_pred_off.(p)) .. x_pred_off.(p + 1) - 1 *)
  x_pred_off : int array;
  x_pred_pes : int array;
  x_dt_spatial : int;
  x_kspace : int;
  x_use_direct : bool;
  x_needs : (int array array * int array array) option;
      (* Per tensor, [(offs, codes)]: instance code [i] touches elements
         [codes.(ti).(offs.(ti).(i)) .. offs.(ti).(i + 1) - 1] (sorted,
         deduplicated).  Element encodings are dataflow-independent, so
         this one walk of the iteration box serves every candidate the
         context scores.  [None] when the layer is too large for the
         table to pay. *)
  x_free : scratch list Atomic.t;
}

(* Caps on the shared element-needs table: past a few million instances
   its build cost and footprint outweigh re-evaluating the accesses per
   candidate, and one-shot [analyze] calls never build it at all. *)
let needs_max_instances = 2_000_000
let needs_max_cells = 8_000_000

let build_needs (op : Ir.Tensor_op.t)
    (fenc_evals : (int array -> int) array array) :
    (int array array * int array array) option =
  let n_instances = Ir.Tensor_op.n_instances op in
  let n_tensors = Array.length fenc_evals in
  if
    n_instances > needs_max_instances
    || Array.fold_left
         (fun a fs -> a + (n_instances * Array.length fs))
         0 fenc_evals
       > needs_max_cells
  then None
  else begin
    let iters =
      Array.of_list
        (List.map
           (fun it -> (it.Ir.Tensor_op.lo, Ir.Tensor_op.extent it))
           op.Ir.Tensor_op.iters)
    in
    let vals = Array.make (Array.length iters) 0 in
    let offs = Array.init n_tensors (fun _ -> Array.make (n_instances + 1) 0) in
    let codes =
      Array.init n_tensors (fun ti ->
          Array.make (n_instances * Array.length fenc_evals.(ti)) 0)
    in
    let inst = ref 0 in
    iter_box iters vals (fun () ->
        let i = !inst in
        for ti = 0 to n_tensors - 1 do
          let fs = fenc_evals.(ti) and a = codes.(ti) and o = offs.(ti) in
          let off = o.(i) in
          for k = 0 to Array.length fs - 1 do
            a.(off + k) <- fs.(k) vals
          done;
          o.(i + 1) <- off + sort_uniq_span a off (Array.length fs)
        done;
        inst := i + 1);
    Some
      ( offs,
        Array.init n_tensors (fun ti ->
            Array.sub codes.(ti) 0 offs.(ti).(n_instances)) )
  end

(* The predecessor lists as CSR arrays, in list order. *)
let pred_csr (preds : int list array) : int array * int array =
  let off = Array.make (Array.length preds + 1) 0 in
  Array.iteri (fun p l -> off.(p + 1) <- off.(p) + List.length l) preds;
  let pes = Array.make off.(Array.length preds) 0 in
  Array.iteri
    (fun p l -> List.iteri (fun k q -> pes.(off.(p) + k) <- q) l)
    preds;
  (off, pes)

let context ?(adjacency : Df.Spacetime.adjacency = `Inner_step)
    ?(validate = true) ?(window = 1) ?(share = true) (spec : Arch.Spec.t)
    (op : Ir.Tensor_op.t) : ctx =
  let pe = spec.Arch.Spec.pe in
  let tensors = Array.of_list (Ir.Tensor_op.tensors op) in
  let n_tensors = Array.length tensors in
  let _, spaces, fenc_evals = element_encoders op in
  let fspace = Array.fold_left max 1 spaces in
  let pe_size = code_space "PE space" (Arch.Pe_array.dims pe) in
  let kspace =
    code_space "(PE, tensor, element) key space"
      [| pe_size; n_tensors; fspace |]
  in
  let pred_off, pred_pes = pred_csr (pred_pe_keys spec) in
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
    x_pred_off = pred_off;
    x_pred_pes = pred_pes;
    x_dt_spatial = Arch.Interconnect.interval spec.Arch.Spec.topology;
    x_kspace = kspace;
    (* Direct addressing also requires validated space bounds: only
       validation guarantees every pkey is in range. *)
    x_use_direct = validate && kspace > 0 && kspace <= 50_000_000;
    x_needs = (if share then build_needs op fenc_evals else None);
    x_free = Atomic.make [];
  }

let new_scratch (ctx : ctx) : scratch =
  let n = max 0 ctx.x_n_instances in
  let direct n = Array.make (if ctx.x_use_direct then n else 0) 0 in
  let hashed () = Hashtbl.create (if ctx.x_use_direct then 1 else 4096) in
  {
    epoch = 1;
    tcode = Array.make n 0;
    pkey = Array.make n 0;
    order = Array.make n 0;
    codes = Array.make (n + 1) 0;
    starts = Array.make (n + 1) 0;
    counts = [||];
    pe_mark = Array.make (ctx.x_pe_size + 1) 0;
    last = direct ctx.x_kspace;
    same = direct (if ctx.x_dt_spatial = 0 then ctx.x_kspace else 0);
    seen = direct (ctx.x_n_tensors * ctx.x_fspace);
    last_h = hashed ();
    same_h = hashed ();
    seen_h = hashed ();
    rows = 0;
    buf = Array.make ctx.x_n_tensors [||];
    boffs = Array.make ctx.x_n_tensors [||];
  }

(* Run [f] on a scratch record of [ctx] no other walk is using. *)
let with_scratch (ctx : ctx) (f : scratch -> 'a) : 'a =
  let rec pop () =
    match Atomic.get ctx.x_free with
    | [] -> new_scratch ctx
    | s :: rest as l ->
        if Atomic.compare_and_set ctx.x_free l rest then s else pop ()
  in
  let s = pop () in
  let rec push () =
    let l = Atomic.get ctx.x_free in
    if not (Atomic.compare_and_set ctx.x_free l (s :: l)) then push ()
  in
  Fun.protect ~finally:push (fun () -> f s)

(* ------------------------------------------------------------------ *)
(* Pass 1: instances in stamp order.                                   *)
(* ------------------------------------------------------------------ *)

let check_size (ctx : ctx) (df : Df.Dataflow.t) : unit =
  if ctx.x_n_instances > 200_000_000 then
    raise
      (Invalid_dataflow
         (Printf.sprintf
            "%s: %d instances is too large to enumerate; use Scaled.analyze \
             (CLI: --scale-dims) for layers of this size"
            df.Df.Dataflow.name ctx.x_n_instances))

(* Time-code spaces up to this many codes per instance are ordered by a
   counting sort; sparser ones by an index sort. *)
let counting_sort_ratio = 4

(* Fill [s]'s pass-1 arrays for [c]: each instance's time code and PE
   key, the instances in stamp order and each stamp's code and run.
   Reserves the walk's marks.  Returns (stamps, largest run, epoch). *)
let order_stamps (ctx : ctx) (s : scratch) (c : compiled) : int * int * int =
  let tcode = s.tcode and pkey = s.pkey and order = s.order in
  let codes = s.codes and starts = s.starts in
  let pe_base = ctx.x_pe_base in
  let next = ref 0 in
  iter_instances c (fun () ->
      let i = !next in
      tcode.(i) <- encode_staged c.time_base c.time_evals c.vals;
      pkey.(i) <- encode_staged pe_base c.space_evals c.vals;
      next := i + 1);
  let n = !next in
  let n_stamps = ref 0 and busiest = ref 0 in
  if c.t_space <= (counting_sort_ratio * n) + 1024 then begin
    (* histogram over code + 1 (an out-of-range stamp encodes as -1),
       turned into each stamp's first slot *)
    let size = c.t_space + 2 in
    if Array.length s.counts < size then s.counts <- Array.make size 0
    else Array.fill s.counts 0 size 0;
    let cnt = s.counts in
    for i = 0 to n - 1 do
      let k = tcode.(i) + 1 in
      cnt.(k) <- cnt.(k) + 1
    done;
    let pos = ref 0 in
    for k = 0 to size - 1 do
      let len = cnt.(k) in
      if len > 0 then begin
        codes.(!n_stamps) <- k - 1;
        starts.(!n_stamps) <- !pos;
        incr n_stamps;
        if len > !busiest then busiest := len;
        cnt.(k) <- !pos;
        pos := !pos + len
      end
    done;
    for i = 0 to n - 1 do
      let k = tcode.(i) + 1 in
      order.(cnt.(k)) <- i;
      cnt.(k) <- cnt.(k) + 1
    done
  end
  else begin
    Obs.incr c_sort_fallbacks;
    for i = 0 to n - 1 do
      order.(i) <- i
    done;
    Array.stable_sort (fun a b -> Int.compare tcode.(a) tcode.(b)) order;
    let j = ref 0 in
    while !j < n do
      let t = tcode.(order.(!j)) and a = !j in
      while !j < n && tcode.(order.(!j)) = t do
        incr j
      done;
      codes.(!n_stamps) <- t;
      starts.(!n_stamps) <- a;
      incr n_stamps;
      if !j - a > !busiest then busiest := !j - a
    done
  end;
  starts.(!n_stamps) <- n;
  let epoch = s.epoch in
  s.epoch <- epoch + !n_stamps + 1;
  (!n_stamps, !busiest, epoch)

(* Whether two instances of one stamp share a PE. *)
let conflicting (s : scratch) ~n_stamps ~epoch : bool =
  let pe_mark = s.pe_mark and pkey = s.pkey and order = s.order in
  let found = ref false and st = ref 0 in
  while (not !found) && !st < n_stamps do
    let mark = epoch + !st in
    for j = s.starts.(!st) to s.starts.(!st + 1) - 1 do
      let p = pkey.(order.(j)) + 1 in
      if pe_mark.(p) = mark then found := true else pe_mark.(p) <- mark
    done;
    incr st
  done;
  !found

(* ------------------------------------------------------------------ *)
(* Cheap time-only profile (DSE dominance bounds).                     *)
(* ------------------------------------------------------------------ *)

type profile = { p_timestamps : int; p_conflict : bool }

(* Count distinct time-stamps and detect spacetime conflicts without
   touching tensor accesses: pass 1 alone, enough for a latency lower
   bound ([latency >= n_timestamps]) and for discarding invalid
   candidates before they reach the full analysis. *)
let time_profile (ctx : ctx) (df : Df.Dataflow.t) : profile =
  Obs.with_span ~args:[ ("dataflow", df.Df.Dataflow.name) ] "concrete.profile"
  @@ fun () ->
  Obs.incr c_profiles;
  check_size ctx df;
  let c = compile ctx.x_op df in
  with_scratch ctx @@ fun s ->
  let n_stamps, _, epoch = order_stamps ctx s c in
  {
    p_timestamps = max 1 n_stamps;
    p_conflict = conflicting s ~n_stamps ~epoch;
  }

(* ------------------------------------------------------------------ *)
(* The full analysis.                                                  *)
(* ------------------------------------------------------------------ *)

(* Read a hashed table; absent keys read 0, below every epoch. *)
let hget (h : (int, int) Hashtbl.t) k =
  match Hashtbl.find h k with v -> v | exception Not_found -> 0

let analyze_in (ctx : ctx) (df : Df.Dataflow.t) : Metrics.t =
  Obs.with_span ~args:[ ("dataflow", df.Df.Dataflow.name) ] "concrete.analyze"
  @@ fun () ->
  Obs.incr c_analyses;
  let spec = ctx.x_spec and op = ctx.x_op in
  let window = ctx.x_window and validate = ctx.x_validate in
  let pe = spec.Arch.Spec.pe in
  check_size ctx df;
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
  let c = compile op df in
  with_scratch ctx @@ fun s ->
  let n_stamps, busiest, epoch =
    Obs.with_span "concrete.bucket" (fun () -> order_stamps ctx s c)
  in
  Obs.add c_instances ctx.x_n_instances;
  if validate && conflicting s ~n_stamps ~epoch then
    raise
      (Invalid_dataflow
         (Printf.sprintf "%s: two instances share a spacetime-stamp"
            df.Df.Dataflow.name));
  let n_tensors = ctx.x_n_tensors and fspace = ctx.x_fspace in
  let direct = ctx.x_use_direct in
  if not direct then begin
    Obs.incr c_hashed_walks;
    Hashtbl.reset s.last_h;
    Hashtbl.reset s.same_h;
    Hashtbl.reset s.seen_h
  end;
  (* the per-instance element codes: the context's needs table, indexed
     by instance code, or this stamp's decoded codes, indexed by slot *)
  let shared, need_offs, need_codes =
    match ctx.x_needs with
    | Some (offs, codes) -> (true, offs, codes)
    | None ->
        if busiest > s.rows then begin
          s.rows <- busiest;
          s.buf <-
            Array.map
              (fun fs -> Array.make (busiest * Array.length fs) 0)
              ctx.x_fenc_evals;
          s.boffs <- Array.map (fun _ -> Array.make (busiest + 1) 0) s.buf
        end;
        (false, s.boffs, s.buf)
  in
  let m = Array.length c.time_evals in
  let inner_ext = if m = 0 then 1 else snd c.time_base.(m - 1) in
  let inner = ctx.x_adjacency = `Inner_step in
  let dt_spatial = ctx.x_dt_spatial in
  let bandwidth = spec.Arch.Spec.bandwidth in
  let pred_off = ctx.x_pred_off and pred_pes = ctx.x_pred_pes in
  let n_pred_rows = Array.length pred_off - 1 in
  let order = s.order and pkey = s.pkey and codes = s.codes in
  let last = s.last and same = s.same and seen = s.seen in
  let last_h = s.last_h and same_h = s.same_h and seen_h = s.seen_h in
  let footprint_mark = epoch + n_stamps in
  let totals = Array.make n_tensors 0 in
  let reuse_t = Array.make n_tensors 0 in
  let reuse_s = Array.make n_tensors 0 in
  let footprints = Array.make n_tensors 0 in
  let stamped_cycles = ref 0 in
  (* pass 2: walk stamps in lexicographic order, checking each element
     against the last time this PE (temporal window) or a predecessor PE
     (spatial, exact interconnect latency) touched it *)
  Obs.with_span "concrete.walk" (fun () ->
      for st = 0 to n_stamps - 1 do
        let tcode = codes.(st) and mark = epoch + st in
        let first = s.starts.(st) and stop = s.starts.(st + 1) in
        (* the j-th instance of the run is row [if shared then order.(j)
           else j - first] of need_offs *)
        if not shared then
          for j = first to stop - 1 do
            decode_iters c order.(j) c.vals;
            for ti = 0 to n_tensors - 1 do
              let fs = ctx.x_fenc_evals.(ti) and a = need_codes.(ti) in
              let o = need_offs.(ti) and k = j - first in
              let off = o.(k) in
              for x = 0 to Array.length fs - 1 do
                a.(off + x) <- fs.(x) c.vals
              done;
              o.(k + 1) <- off + sort_uniq_span a off (Array.length fs)
            done
          done;
        (* same-stamp needs, for interval-0 wire sharing *)
        if dt_spatial = 0 then
          for j = first to stop - 1 do
            let p = pkey.(order.(j)) in
          let i = if shared then order.(j) else j - first in
            for ti = 0 to n_tensors - 1 do
              let o = need_offs.(ti) and a = need_codes.(ti) in
              let row = ((p * n_tensors) + ti) * fspace in
              for e = o.(i) to o.(i + 1) - 1 do
                if direct then same.(row + a.(e)) <- mark
                else Hashtbl.replace same_h (row + a.(e)) mark
              done
            done
          done;
        let stamp_unique = ref 0 in
        for j = first to stop - 1 do
          let p = pkey.(order.(j)) in
          let i = if shared then order.(j) else j - first in
          let has_preds = p >= 0 && p < n_pred_rows in
          for ti = 0 to n_tensors - 1 do
            let o = need_offs.(ti) and a = need_codes.(ti) in
            let row = ((p * n_tensors) + ti) * fspace in
            for e = o.(i) to o.(i + 1) - 1 do
              let f = a.(e) in
              totals.(ti) <- totals.(ti) + 1;
              let fk = (ti * fspace) + f in
              if direct then begin
                if seen.(fk) <> footprint_mark then begin
                  seen.(fk) <- footprint_mark;
                  footprints.(ti) <- footprints.(ti) + 1
                end
              end
              else if hget seen_h fk <> footprint_mark then begin
                Hashtbl.replace seen_h fk footprint_mark;
                footprints.(ti) <- footprints.(ti) + 1
              end;
              let temporal =
                m > 0
                &&
                let l =
                  if direct then last.(row + f) else hget last_h (row + f)
                in
                l >= epoch
                &&
                let t = codes.(l - epoch) in
                tcode - t <= window
                && ((not inner) || tcode / inner_ext = t / inner_ext)
              in
              if temporal then reuse_t.(ti) <- reuse_t.(ti) + 1
              else begin
                let spatial = ref false in
                if has_preds then begin
                  let q = ref pred_off.(p) and q_stop = pred_off.(p + 1) in
                  while (not !spatial) && !q < q_stop do
                    let k =
                      (((pred_pes.(!q) * n_tensors) + ti) * fspace) + f
                    in
                    (if dt_spatial = 0 then
                       spatial :=
                         (if direct then same.(k) else hget same_h k) = mark
                     else
                       let l = if direct then last.(k) else hget last_h k in
                       spatial :=
                         l >= epoch
                         &&
                         let t = codes.(l - epoch) in
                         tcode - t = dt_spatial
                         && ((not inner) || tcode / inner_ext = t / inner_ext));
                    incr q
                  done
                end;
                if !spatial then reuse_s.(ti) <- reuse_s.(ti) + 1
                else incr stamp_unique
              end
            done
          done
        done;
        stamped_cycles :=
          !stamped_cycles
          + max 1 ((!stamp_unique + bandwidth - 1) / bandwidth);
        (* commit this stamp's touches *)
        for j = first to stop - 1 do
          let p = pkey.(order.(j)) in
          let i = if shared then order.(j) else j - first in
          for ti = 0 to n_tensors - 1 do
            let o = need_offs.(ti) and a = need_codes.(ti) in
            let row = ((p * n_tensors) + ti) * fspace in
            for e = o.(i) to o.(i + 1) - 1 do
              if direct then last.(row + a.(e)) <- mark
              else Hashtbl.replace last_h (row + a.(e)) mark
            done
          done
        done
      done);
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
          footprint = footprints.(ti);
        })
      (Array.to_list ctx.x_tensors)
  in
  Metrics.assemble ~spec ~dataflow:df.Df.Dataflow.name ~per_tensor
    ~n_instances:ctx.x_n_instances ~n_timestamps:n_stamps ~busiest
    ~stamped_cycles:!stamped_cycles ()

let analyze ?(adjacency : Df.Spacetime.adjacency = `Inner_step)
    ?(validate = true) ?(window = 1) (spec : Arch.Spec.t)
    (op : Ir.Tensor_op.t) (df : Df.Dataflow.t) : Metrics.t =
  analyze_in (context ~adjacency ~validate ~window ~share:false spec op) df

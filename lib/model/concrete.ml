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
   codes (ascending code = lexicographic order); every code space, the
   instance count included, is sized with overflow-checked products and
   refused past the int range, so no code or count wraps.  Pass 1 stores
   each instance's time code and PE key in int arrays and orders the
   instances by time code: a counting sort, or an index sort when the
   time-code space dwarfs the instance count.  It is the only pass 1:
   the simulator and the capacity checker's enumeration run it too.
   Pass 2 walks each stamp's run of instances against the last-touch,
   same-stamp and footprint tables.  Every walk takes its arrays from
   its domain's scratch pool, which holds them weakly; every mark a walk
   writes carries the pool's epoch, advanced before the walk, so one
   array serves walk after walk, of any context, without being cleared.
   test/golden/concrete_zoo.txt pins the outputs. *)

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
  (* staged evaluators of the space and time expressions over [vals] (no
     name resolution or AST walk per instance — the walk is the hot
     loop) *)
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
(* The per-domain scratch pool.                                        *)
(* ------------------------------------------------------------------ *)

(* Every walk's working arrays come from one pool per domain: pass 1's
   (the concrete engine's, [time_profile]'s, the simulator's and the
   capacity checker's), the conflict marks and pass 2's tables.  Slot k
   keeps the array the last walk left there, held weakly so that a major
   collection can reclaim it while no walk runs; a walk takes it when it
   is long enough and makes a longer one otherwise.  A cell of a marks
   slot ([sl_pe_mark], [sl_last], [sl_same], [sl_seen]) is current only
   when it holds a mark at or above the epoch of the walk reading it:
   each walk takes the marks [epoch .. epoch + stamps] (stamp s marks
   [epoch + s], footprints [epoch + stamps]) and advances the pool's
   epoch past them before it writes any.  The epoch only grows, so what
   any earlier walk on the domain left, for whatever context, reads as
   unmarked, and a fresh array (all 0) does too.  A walk that starts
   while another holds the pool (say, from a simulator trace callback)
   gets a pool of its own. *)
type pool = {
  mutable epoch : int;
  mutable busy : bool;
  mutable held : int array Weak.t;
}

let sl_tcode = 0 (* time code per instance *)
let sl_pkey = 1 (* PE key per instance (-1: outside the array) *)
let sl_order = 2 (* instances in stamp order, ascending within one *)
let sl_codes = 3 (* time code per stamp *)
let sl_starts = 4 (* stamp s: order.(starts.(s)) .. starts.(s + 1) - 1 *)
let sl_counts = 5 (* counting-sort histogram *)
let sl_pe_mark = 6 (* conflict marks, indexed by PE key + 1 *)
let sl_last = 7 (* (PE, tensor, element) key -> mark of last touch *)
let sl_same = 8 (* key -> mark of the stamp needing it (interval 0) *)
let sl_seen = 9 (* tensor * fspace + element -> footprint mark *)

(* One stamp's decoded element codes, per tensor ti: codes in slot
   [sl_stamp_buf + 2 ti], row offsets in the slot after it. *)
let sl_stamp_buf = 10

let new_pool () = { epoch = 1; busy = false; held = Weak.create 16 }
let pool_key = Domain.DLS.new_key new_pool

(* Smallest array the pool makes.  A shorter one would start in the
   minor heap, where the pool's weak hold lets the next minor collection
   drop it, so a run of small walks would make their arrays anew. *)
let pool_min = 1024

(* An array of at least [len] cells in [slot]; its contents are what the
   slot's last user left, or 0. *)
let take (p : pool) (slot : int) (len : int) : int array =
  if slot >= Weak.length p.held then begin
    let w = Weak.create (2 * (slot + 1)) in
    Weak.blit p.held 0 w 0 (Weak.length p.held);
    p.held <- w
  end;
  match Weak.get p.held slot with
  | Some a when Array.length a >= len -> a
  | _ ->
      let a = Array.make (max len pool_min) 0 in
      Weak.set p.held slot (Some a);
      a

(* Run [f] on this domain's pool, or on a fresh one when a walk already
   holds it. *)
let with_pool (f : pool -> 'a) : 'a =
  let p = Domain.DLS.get pool_key in
  if p.busy then f (new_pool ())
  else begin
    p.busy <- true;
    Fun.protect ~finally:(fun () -> p.busy <- false) (fun () -> f p)
  end

(* ------------------------------------------------------------------ *)
(* Pass 1: instances in stamp order.                                   *)
(* ------------------------------------------------------------------ *)

(* Points of [op]'s iteration box, refused past the int range. *)
let instance_count (op : Ir.Tensor_op.t) : int =
  code_space "instance space"
    (Array.of_list (List.map Ir.Tensor_op.extent op.Ir.Tensor_op.iters))

(* Pass 1's result, in arrays of the pool that made it.  Instance i (the
   i-th [iter_instances] visits) has PE key pkey.(i) (-1 outside the
   array); stamp s has time code codes.(s) and runs over the instances
   order.(starts.(s)) .. order.(starts.(s + 1) - 1), ascending.  The
   walk owns the marks [epoch .. epoch + n_stamps]. *)
type stamps = {
  n_stamps : int;
  busiest : int; (* longest run *)
  epoch : int;
  pkey : int array;
  order : int array;
  codes : int array;
  starts : int array;
}

(* Time-code spaces up to this many codes per instance are ordered by a
   counting sort; sparser ones by an index sort. *)
let counting_sort_ratio = 4

(* Pass 1 of [c]'s [n] instances, PE keys under [pe_base]: each
   instance's time code and PE key, the instances in stamp order and
   each stamp's code and run.  Reserves the walk's marks. *)
let order_stamps (p : pool) (c : compiled) ~(pe_base : (int * int) array)
    ~(n : int) : stamps =
  let tcode = take p sl_tcode n and pkey = take p sl_pkey n in
  let order = take p sl_order n in
  let codes = take p sl_codes (n + 1) and starts = take p sl_starts (n + 1) in
  let next = ref 0 in
  iter_instances c (fun () ->
      let i = !next in
      tcode.(i) <- encode_staged c.time_base c.time_evals c.vals;
      pkey.(i) <- encode_staged pe_base c.space_evals c.vals;
      next := i + 1);
  let n_stamps = ref 0 and busiest = ref 0 in
  if c.t_space <= (counting_sort_ratio * n) + 1024 then begin
    (* histogram over code + 1 (an out-of-range stamp encodes as -1),
       turned into each stamp's first slot *)
    let size = c.t_space + 2 in
    let cnt = take p sl_counts size in
    Array.fill cnt 0 size 0;
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
    (* only the first n cells: the pooled arrays may be longer *)
    let sorted = Array.init n Fun.id in
    Array.stable_sort (fun a b -> Int.compare tcode.(a) tcode.(b)) sorted;
    Array.blit sorted 0 order 0 n;
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
  let epoch = p.epoch in
  p.epoch <- epoch + !n_stamps + 1;
  {
    n_stamps = !n_stamps;
    busiest = !busiest;
    epoch;
    pkey;
    order;
    codes;
    starts;
  }

(* Whether two instances of one stamp share a PE; PE keys are below
   [pe_size]. *)
let conflicting (p : pool) (st : stamps) ~(pe_size : int) : bool =
  let pe_mark = take p sl_pe_mark (pe_size + 1) in
  let pkey = st.pkey and order = st.order and starts = st.starts in
  let found = ref false and s = ref 0 in
  while (not !found) && !s < st.n_stamps do
    let mark = st.epoch + !s in
    for j = starts.(!s) to starts.(!s + 1) - 1 do
      let k = pkey.(order.(j)) + 1 in
      if pe_mark.(k) = mark then found := true else pe_mark.(k) <- mark
    done;
    incr s
  done;
  !found

(* Refuse [df] when two of its instances share a spacetime-stamp. *)
let check_conflicts (p : pool) (st : stamps) ~(pe_size : int)
    (df : Df.Dataflow.t) : unit =
  if conflicting p st ~pe_size then
    raise
      (Invalid_dataflow
         (Printf.sprintf "%s: two instances share a spacetime-stamp"
            df.Df.Dataflow.name))

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

(* Everything the analysis needs that depends only on the (architecture,
   operator, evaluation options) triple — not on the candidate dataflow.
   A DSE sweep scores hundreds of dataflows against one such triple; the
   context is built once and shared, and each candidate pays only the
   dataflow-dependent part of the walk.  A context is immutable after
   construction and every walk works in its own domain's pool, so one
   context can be shared across the parallel work pool. *)
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
}

(* Caps on the shared element-needs table: past a few million instances
   its build cost and footprint outweigh re-evaluating the accesses per
   candidate, and one-shot [analyze] calls never build it at all. *)
let needs_max_instances = 2_000_000
let needs_max_cells = 8_000_000

let build_needs (op : Ir.Tensor_op.t) ~(n_instances : int)
    (fenc_evals : (int array -> int) array array) :
    (int array array * int array array) option =
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
  let n_instances = instance_count op in
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
    x_n_instances = n_instances;
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
    x_needs = (if share then build_needs op ~n_instances fenc_evals else None);
  }

let check_size (ctx : ctx) (df : Df.Dataflow.t) : unit =
  if ctx.x_n_instances > 200_000_000 then
    raise
      (Invalid_dataflow
         (Printf.sprintf
            "%s: %d instances is too large to enumerate; use Scaled.analyze \
             (CLI: --scale-dims) for layers of this size"
            df.Df.Dataflow.name ctx.x_n_instances))

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
  with_pool @@ fun pool ->
  let st = order_stamps pool c ~pe_base:ctx.x_pe_base ~n:ctx.x_n_instances in
  {
    p_timestamps = max 1 st.n_stamps;
    p_conflict = conflicting pool st ~pe_size:ctx.x_pe_size;
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
  with_pool @@ fun pool ->
  let st =
    Obs.with_span "concrete.bucket" (fun () ->
        order_stamps pool c ~pe_base:ctx.x_pe_base ~n:ctx.x_n_instances)
  in
  Obs.add c_instances ctx.x_n_instances;
  if validate then check_conflicts pool st ~pe_size:ctx.x_pe_size df;
  let n_stamps = st.n_stamps and busiest = st.busiest and epoch = st.epoch in
  let n_tensors = ctx.x_n_tensors and fspace = ctx.x_fspace in
  let dt_spatial = ctx.x_dt_spatial in
  (* pass 2's tables: the pool's arrays when direct, else hash tables *)
  let direct = ctx.x_use_direct in
  let table used slot len = if used then take pool slot len else [||] in
  let last = table direct sl_last ctx.x_kspace in
  let same = table (direct && dt_spatial = 0) sl_same ctx.x_kspace in
  let seen = table direct sl_seen (n_tensors * fspace) in
  let hashed () = Hashtbl.create (if direct then 1 else 4096) in
  let last_h = hashed () and same_h = hashed () and seen_h = hashed () in
  if not direct then Obs.incr c_hashed_walks;
  (* the per-instance element codes: the context's needs table, indexed
     by instance code, or this stamp's decoded codes, indexed by slot *)
  let shared, need_offs, need_codes =
    match ctx.x_needs with
    | Some (offs, codes) -> (true, offs, codes)
    | None ->
        let offs =
          Array.init n_tensors (fun ti ->
              take pool (sl_stamp_buf + (2 * ti) + 1) (busiest + 1))
        in
        Array.iter (fun o -> o.(0) <- 0) offs;
        ( false,
          offs,
          Array.mapi
            (fun ti fs ->
              take pool (sl_stamp_buf + (2 * ti)) (busiest * Array.length fs))
            ctx.x_fenc_evals )
  in
  let m = Array.length c.time_evals in
  let inner_ext = if m = 0 then 1 else snd c.time_base.(m - 1) in
  let inner = ctx.x_adjacency = `Inner_step in
  let bandwidth = spec.Arch.Spec.bandwidth in
  let pred_off = ctx.x_pred_off and pred_pes = ctx.x_pred_pes in
  let n_pred_rows = Array.length pred_off - 1 in
  let order = st.order and pkey = st.pkey in
  let codes = st.codes and starts = st.starts in
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
      for s = 0 to n_stamps - 1 do
        let tcode = codes.(s) and mark = epoch + s in
        let first = starts.(s) and stop = starts.(s + 1) in
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

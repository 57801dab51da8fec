(* A cycle-level simulator for tensor dataflows on spatial architectures.

   This is the repository's substitute for the silicon ground truth the
   paper compares against (reported Eyeriss / MAERI numbers): it actually
   executes the dataflow stamp by stamp, moving data through registers,
   interconnect and a bandwidth-limited scratchpad, and reports observed
   latency / utilization / traffic.

   It shares with the analytical models ({!Tenet_model.Concrete}) the IR,
   the iteration of the instance box, the mixed-radix encodings of
   stamps, PEs and tensor elements, the staged subscript and stamp
   evaluators, the interconnect predecessor table, and pass 1 (the
   instances ordered into per-stamp runs, and the conflict check) on the
   per-domain scratch pool.  It shares none
   of their semantics: no reuse channels, window or transfer
   attribution, counting or metric formulas.  The machine below decides
   every fetch, transfer and writeback itself, so model-vs-simulator
   agreement is a genuine cross-check (see DESIGN.md).  The capacity
   checker's fallback (Analysis.Capacity) reads its verdicts off this
   machine's peak probes.

   Machine model:
   - time-stamps execute in lexicographic order; a stamp takes
     max(1, ceil((reads + writes) / bandwidth)) cycles — scratchpad
     traffic the analytical model assumes is hidden by double buffering
     shows up here as stalls when bandwidth is short;
   - each PE holds a register file per tensor retaining the elements it
     touched during the last [window] stamps it was busy (default 1),
     matching the analytical model's temporal-reuse window;
   - interval-1 interconnects deliver elements a neighbor holds;
     interval-0 wires share one fetch among connected PEs needing the
     same element in the same stamp (the lex-least fetches);
   - output partial sums are written back on eviction and reloaded when
     an already-initialized element returns to a PE.

   Representation: a tensor element is its mixed-radix code, so ascending
   code is lexicographic element order.  Each (PE, tensor) register file
   is a ring of [window] slots, a slot holding the sorted, distinct codes
   of one busy stamp. *)

module Ir = Tenet_ir
module Arch = Tenet_arch
module Df = Tenet_dataflow
module C = Tenet_model.Concrete
module Obs = Tenet_obs

let c_runs = Obs.counter "sim.runs"
let c_stamps = Obs.counter "sim.stamps"
let c_fetches = Obs.counter "sim.fetches"
let c_writebacks = Obs.counter "sim.writebacks"
let c_stalls = Obs.counter "sim.stalled_cycles"

type tensor_traffic = {
  tensor : string;
  direction : Ir.Tensor_op.direction;
  fetches : int; (* scratchpad reads *)
  writebacks : int; (* scratchpad writes *)
}

(* Peak demand per stamp, each with the earliest stamp reaching it as
   witness; within that stamp ties go to the lex-least PE (pair).  The
   capacity checker's TN014-TN018 verdicts and witnesses.  Kept out of
   to_string/to_json so existing transcripts stay byte-identical. *)
type peaks = {
  pe_live : int; (* max distinct elements in one PE's registers *)
  pe_live_at : int array; (* (p.., t..) *)
  chip_live : int; (* max distinct (tensor, element) in one stamp *)
  chip_live_at : int array; (* (t..) *)
  link_load : int; (* max transfers over one edge in one stamp *)
  link_load_at : int array; (* (t.., src p.., dst p..) *)
  fanout : int; (* max destinations of one element from one PE *)
  fanout_at : int array; (* (t.., src p..) *)
  inflow : int; (* max elements a stamp needs that the previous did not *)
  inflow_at : int array; (* (t..) *)
}

type result = {
  cycles : int; (* observed latency *)
  busy_pe_cycles : int;
  n_instances : int;
  pe_size : int;
  utilization : float; (* instances / (PEs * cycles), the Fig 11 metric *)
  traffic : tensor_traffic list;
  stalled_cycles : int; (* cycles beyond one per stamp *)
  peaks : peaks;
}

(* A peak being probed: the largest value offered, the first stamp
   offering it, and the lex-least PE keys (a, b) offering it there. *)
type probe = {
  mutable v : int;
  mutable k : int;
  mutable a : int;
  mutable b : int;
}

let probe () = { v = -1; k = -1; a = 0; b = 0 }

let offer pr v k a b =
  if
    v > pr.v
    || (v = pr.v && k = pr.k && (a < pr.a || (a = pr.a && b < pr.b)))
  then begin
    pr.v <- v;
    pr.k <- k;
    pr.a <- a;
    pr.b <- b
  end

(* Per-element integer marks of one tensor, indexed by element code: a
   flat array for element spaces up to [flat_marks_max], beyond that a
   hash table of the codes actually set.  Unset codes read 0. *)
type marks = Flat of int array | Sparse of (int, int) Hashtbl.t

let flat_marks_max = 1 lsl 20

let marks_create space =
  if space <= flat_marks_max then Flat (Array.make space 0)
  else Sparse (Hashtbl.create 1024)

let mark_get m k =
  match m with
  | Flat a -> a.(k)
  | Sparse h -> ( try Hashtbl.find h k with Not_found -> 0)

let mark_set m k v =
  match m with Flat a -> a.(k) <- v | Sparse h -> Hashtbl.replace h k v

(* Index of [f] in the sorted span [a.(off) .. a.(off + len - 1)], or -1. *)
let span_find (a : int array) off len f =
  let i = ref off and stop = off + len in
  while !i < stop && a.(!i) < f do
    incr i
  done;
  if !i < stop && a.(!i) = f then !i else -1

let run ?(window = 1) ?trace (spec : Arch.Spec.t) (op : Ir.Tensor_op.t)
    (df : Df.Dataflow.t) : result =
  Obs.with_span ~args:[ ("dataflow", df.Df.Dataflow.name) ] "sim.run"
  @@ fun () ->
  Obs.incr c_runs;
  let pe = spec.Arch.Spec.pe in
  (* the gate's facts in its order, injectivity off pass 1 below; every
     PE coordinate must exist: the machine state is indexed by PE *)
  let n = C.instance_count op in
  C.refuse (Df.Dataflow.space_violation op df pe);
  let c = C.compile op df in
  let pe_base = Array.map (fun d -> (0, d)) (Arch.Pe_array.dims pe) in
  let pe_size = Arch.Pe_array.size pe in
  C.with_pool @@ fun pool ->
  (* the concrete engine's pass 1: instances in stamp order (ascending
     mixed-radix code = lexicographic), each stamp's run in instance
     order; one MAC per PE, so a PE busy twice in one stamp is a Θ
     conflict *)
  let st = C.order_stamps pool c ~pe_base ~n in
  C.check_conflicts pool st ~pe_size df;
  let n_stamps = st.C.n_stamps in
  let order = st.C.order and starts = st.C.starts and pkey = st.C.pkey in
  let act_stamp = Array.make pe_size (-1) in
  let interval = Arch.Interconnect.interval spec.Arch.Spec.topology in
  (* hop/wire predecessors per PE (lex-filtered for interval 0) *)
  let preds = C.pred_pe_keys spec in
  let tensors = Array.of_list (Ir.Tensor_op.tensors op) in
  let n_tensors = Array.length tensors in
  let bases, spaces, encs = C.element_encoders op in
  let outputs = Ir.Tensor_op.outputs op in
  let is_output = Array.map (fun t -> List.mem t outputs) tensors in
  (* an instance touches at most [caps.(ti)] distinct elements of ti *)
  let caps = Array.map Array.length encs in
  (* Register rings.  Slot k of (p, ti) holds ring_len.(ti).(p * slots + k)
     codes from ring.(ti).((p * slots + k) * caps.(ti)); the filled slots
     are 0 .. count - 1 with the newest at head.  A PE fills at most one
     slot per stamp, so no ring needs more slots than there are stamps. *)
  let slots = max 0 (min window n_stamps) in
  let ring = Array.map (fun cap -> Array.make (pe_size * slots * cap) 0) caps in
  let ring_len =
    Array.init n_tensors (fun _ -> Array.make (pe_size * slots) 0)
  in
  let count = Array.make (pe_size * n_tensors) 0 in
  let head = Array.make (pe_size * n_tensors) 0 in
  (* distinct codes held across each ring, kept as slots come and go *)
  let live = Array.make (pe_size * n_tensors) 0 in
  (* This stamp's needs: the j-th instance served has need_len.(ti).(j)
     codes from need.(ti).(j * caps.(ti)); act_slot.(p) is PE p's j when
     act_stamp.(p) is the current stamp. *)
  let need = Array.map (fun cap -> Array.make (pe_size * cap) 0) caps in
  let need_len = Array.init n_tensors (fun _ -> Array.make pe_size 0) in
  let act_slot = Array.make pe_size 0 in
  (* [used]: 2(k+1) once stamp k needs the element, 2(k+1)+1 once stamp
     k writes it back; so "alive or written in stamp k" is >= 2(k+1).
     [initialized]: 1 once an output element holds a partial sum in the
     scratchpad. *)
  let used = Array.map marks_create spaces in
  let initialized =
    Array.mapi
      (fun ti sp -> if is_output.(ti) then marks_create sp else Flat [||])
      spaces
  in
  (* Per-stamp transfer tallies for the link-load and fan-out probes.
     A transfer is an element a PE needs, does not hold, and receives
     from its lex-least capable predecessor.  All transfers into one PE
     happen while serving its one instance, so edge loads are counted
     per served instance over the source PE.  Fanout is counted at the
     supplied element's position in the source's storage (its needs for
     interval 0, its ring otherwise), which is one position per (source,
     element) within a stamp. *)
  let served = ref 0 in
  let edge_seq = Array.make pe_size (-1) and edge_cnt = Array.make pe_size 0 in
  let supply = if interval = 0 then need else ring in
  let fan_stamp =
    Array.map (fun a -> Array.make (Array.length a) (-1)) supply
  in
  let fan_cnt = Array.map (fun a -> Array.make (Array.length a) 0) supply in
  let fetches = Array.make n_tensors 0 in
  let writebacks = Array.make n_tensors 0 in
  let cycles = ref 0 and stalls = ref 0 in
  let pe_pr = probe () and chip_pr = probe () and inflow_pr = probe () in
  let link_pr = probe () and fan_pr = probe () in
  (* trace elements are decoded into one buffer per tensor *)
  let elt = Array.map (fun b -> Array.make (Array.length b) 0) bases in
  let record ti code =
    match trace with
    | None -> ()
    | Some f ->
        C.decode bases.(ti) code elt.(ti);
        f tensors.(ti) elt.(ti)
  in
  (* position in ring.(ti) of [f] in (p, ti)'s filled slots other than
     [skip], or -1 *)
  let ring_find ti p f skip =
    let cap = caps.(ti) and lens = ring_len.(ti) in
    let filled = count.((p * n_tensors) + ti) in
    let pos = ref (-1) and k = ref 0 in
    while !pos < 0 && !k < filled do
      if !k <> skip then begin
        let slot = (p * slots) + !k in
        pos := span_find ring.(ti) (slot * cap) lens.(slot) f
      end;
      incr k
    done;
    !pos
  in
  (* append this stamp's codes to (p, ti)'s ring, dropping the oldest
     slot when the window is full *)
  let push ti p j =
    if slots > 0 then begin
      let reg = (p * n_tensors) + ti in
      let cap = caps.(ti) and lens = ring_len.(ti) and data = ring.(ti) in
      let full = count.(reg) = slots in
      let k = if full then (head.(reg) + 1) mod slots else count.(reg) in
      let skip = if full then k else -1 in
      let slot = (p * slots) + k in
      if full then
        for e = slot * cap to (slot * cap) + lens.(slot) - 1 do
          if ring_find ti p data.(e) k < 0 then live.(reg) <- live.(reg) - 1
        done;
      let src = need.(ti) and off = j * cap and len = need_len.(ti).(j) in
      for e = off to off + len - 1 do
        if ring_find ti p src.(e) skip < 0 then live.(reg) <- live.(reg) + 1
      done;
      Array.blit src off data (slot * cap) len;
      lens.(slot) <- len;
      head.(reg) <- k;
      if not full then count.(reg) <- count.(reg) + 1
    end
  in
  (* The lex-least PE among [ps] able to supply element [f] of tensor ti
     in stamp k: one that needs it this stamp (interval 0) or holds it
     (otherwise).  Leaves the PE in sup_q and the element's position in
     its storage in sup_pos (-1: none); the caller resets both. *)
  let sup_q = ref max_int and sup_pos = ref (-1) in
  let rec scan_preds ti k f = function
    | [] -> ()
    | p' :: rest ->
        if p' < !sup_q then begin
          let pos =
            if interval = 0 then
              if act_stamp.(p') = k then
                let j' = act_slot.(p') in
                span_find need.(ti) (j' * caps.(ti)) need_len.(ti).(j') f
              else -1
            else ring_find ti p' f (-1)
          in
          if pos >= 0 then begin
            sup_q := p';
            sup_pos := pos
          end
        end;
        scan_preds ti k f rest
  in
  (* PE of the j-th instance served this stamp *)
  let stamp_pe = Array.make pe_size 0 in
  for k = 0 to n_stamps - 1 do
    let tag = 2 * (k + 1) in
    (* an element the previous stamp needed is marked [prev] *)
    let prev = if k = 0 then -1 else tag - 2 in
    (* gather: every instance's element codes, in serving order: the
       run's newest instance first *)
    let stop = starts.(k + 1) in
    let nk = stop - starts.(k) and chip = ref 0 and inflow = ref 0 in
    for j = 0 to nk - 1 do
      let inst = order.(stop - 1 - j) in
      let p = pkey.(inst) in
      stamp_pe.(j) <- p;
      act_stamp.(p) <- k;
      act_slot.(p) <- j;
      C.decode_iters c inst c.C.vals;
      for ti = 0 to n_tensors - 1 do
        let cap = caps.(ti) and buf = need.(ti) and fs = encs.(ti) in
        let off = j * cap in
        for a = 0 to cap - 1 do
          buf.(off + a) <- fs.(a) c.C.vals
        done;
        let len = C.sort_uniq_span buf off cap in
        need_len.(ti).(j) <- len;
        let u = used.(ti) in
        for e = off to off + len - 1 do
          let mk = mark_get u buf.(e) in
          if mk < tag then begin
            mark_set u buf.(e) tag;
            incr chip;
            if mk <> prev then incr inflow
          end
        done
      done
    done;
    offer chip_pr !chip k 0 0;
    offer inflow_pr !inflow k 0 0;
    let reads = ref 0 and writes = ref 0 in
    for j = 0 to nk - 1 do
      let p = stamp_pe.(j) in
      incr served;
      for ti = 0 to n_tensors - 1 do
        let cap = caps.(ti) and buf = need.(ti) in
        let off = j * cap and len = need_len.(ti).(j) in
        let reg = (p * n_tensors) + ti in
        if is_output.(ti) && count.(reg) > 0 && count.(reg) >= window then begin
          (* evict partial sums leaving the array: those about to fall
             off the register window, not used anywhere this stamp (a
             live element merely migrating between PEs travels over the
             interconnect), and written only once per stamp even if
             several PEs held copies *)
          let oldest = (head.(reg) + 1) mod slots in
          let slot = (p * slots) + oldest in
          let data = ring.(ti) in
          for e = slot * cap to (slot * cap) + ring_len.(ti).(slot) - 1 do
            let g = data.(e) in
            if ring_find ti p g oldest < 0 && mark_get used.(ti) g < tag
            then begin
              incr writes;
              writebacks.(ti) <- writebacks.(ti) + 1;
              record ti g;
              mark_set used.(ti) g (tag + 1);
              mark_set initialized.(ti) g 1
            end
          done
        end;
        for e = off to off + len - 1 do
          let f = buf.(e) in
          if ring_find ti p f (-1) < 0 then begin
            sup_q := max_int;
            sup_pos := -1;
            scan_preds ti k f preds.(p);
            if !sup_pos >= 0 then begin
              let q = !sup_q and pos = !sup_pos in
              if edge_seq.(q) <> !served then begin
                edge_seq.(q) <- !served;
                edge_cnt.(q) <- 0
              end;
              edge_cnt.(q) <- edge_cnt.(q) + 1;
              if edge_cnt.(q) >= link_pr.v then
                offer link_pr edge_cnt.(q) k q p;
              let fs = fan_stamp.(ti) and fc = fan_cnt.(ti) in
              if fs.(pos) <> k then begin
                fs.(pos) <- k;
                fc.(pos) <- 0
              end;
              fc.(pos) <- fc.(pos) + 1;
              if fc.(pos) >= fan_pr.v then offer fan_pr fc.(pos) k q 0
            end
            else if
              (not is_output.(ti)) || mark_get initialized.(ti) f = 1
            then begin
              (* a scratchpad read; for an output, the reload of an
                 existing partial sum *)
              incr reads;
              fetches.(ti) <- fetches.(ti) + 1;
              record ti f
            end
          end
        done
      done
    done;
    let step_cycles =
      max 1
        ((!reads + !writes + spec.Arch.Spec.bandwidth - 1)
        / spec.Arch.Spec.bandwidth)
    in
    stalls := !stalls + (step_cycles - 1);
    cycles := !cycles + step_cycles;
    (* commit registers for the next stamp, then probe the post-commit
       occupancy of the PEs busy this stamp *)
    for j = 0 to nk - 1 do
      let p = stamp_pe.(j) in
      let held = ref 0 in
      for ti = 0 to n_tensors - 1 do
        push ti p j;
        held := !held + live.((p * n_tensors) + ti)
      done;
      if !held >= pe_pr.v then offer pe_pr !held k p 0
    done
  done;
  (* final drain: all live output partial sums return to the scratchpad *)
  let final_writes = ref 0 in
  for ti = 0 to n_tensors - 1 do
    if is_output.(ti) then begin
      let cap = caps.(ti) and lens = ring_len.(ti) and data = ring.(ti) in
      (* every PE's register contents, newest slot first *)
      let iter_held f =
        for p = 0 to pe_size - 1 do
          let reg = (p * n_tensors) + ti in
          for d = 0 to count.(reg) - 1 do
            let slot = (p * slots) + ((head.(reg) - d + slots) mod slots) in
            for e = slot * cap to (slot * cap) + lens.(slot) - 1 do
              f data.(e)
            done
          done
        done
      in
      let distinct =
        match trace with
        | None ->
            (* count distinct codes under a tag above every stamp's *)
            let tag = 2 * (n_stamps + 1) in
            let u = used.(ti) and n = ref 0 in
            iter_held (fun g ->
                if mark_get u g < tag then begin
                  mark_set u g tag;
                  incr n
                end);
            !n
        | Some f ->
            (* the drain's order in the trace is that of an
               element-keyed hash table filled in this order; reuse
               distances depend on it *)
            let tbl = Hashtbl.create 64 in
            iter_held (fun g ->
                let a = Array.make (Array.length bases.(ti)) 0 in
                C.decode bases.(ti) g a;
                Hashtbl.replace tbl a ());
            Hashtbl.iter (fun g () -> f tensors.(ti) g) tbl;
            Hashtbl.length tbl
      in
      final_writes := !final_writes + distinct;
      writebacks.(ti) <- writebacks.(ti) + distinct
    end
  done;
  cycles :=
    !cycles
    + ((!final_writes + spec.Arch.Spec.bandwidth - 1)
      / spec.Arch.Spec.bandwidth);
  Obs.add c_stamps n_stamps;
  Obs.add c_fetches (Array.fold_left ( + ) 0 fetches);
  Obs.add c_writebacks (Array.fold_left ( + ) 0 writebacks);
  Obs.add c_stalls !stalls;
  (* witnesses decoded once, from stamp index and PE keys *)
  let decode base code =
    let a = Array.make (Array.length base) 0 in
    C.decode base code a;
    a
  in
  let at pr f =
    if pr.k < 0 then [||] else f (decode c.C.time_base st.C.codes.(pr.k))
  in
  let pe_at = decode pe_base in
  {
    cycles = !cycles;
    busy_pe_cycles = n;
    n_instances = n;
    pe_size;
    utilization =
      float_of_int n /. float_of_int (pe_size * max 1 !cycles);
    traffic =
      Array.to_list
        (Array.mapi
           (fun ti t ->
             {
               tensor = t;
               direction =
                 (if is_output.(ti) then Ir.Tensor_op.Write
                  else Ir.Tensor_op.Read);
               fetches = fetches.(ti);
               writebacks = writebacks.(ti);
             })
           tensors);
    stalled_cycles = !stalls;
    peaks =
      {
        pe_live = max 0 pe_pr.v;
        pe_live_at = at pe_pr (fun t -> Array.append (pe_at pe_pr.a) t);
        chip_live = max 0 chip_pr.v;
        chip_live_at = at chip_pr Fun.id;
        link_load = max 0 link_pr.v;
        link_load_at =
          at link_pr (fun t ->
              Array.concat [ t; pe_at link_pr.a; pe_at link_pr.b ]);
        fanout = max 0 fan_pr.v;
        fanout_at = at fan_pr (fun t -> Array.append t (pe_at fan_pr.a));
        inflow = max 0 inflow_pr.v;
        inflow_at = at inflow_pr Fun.id;
      };
  }

let to_string r =
  Printf.sprintf "cycles=%d util=%.3f busy=%d stalls=%d traffic=[%s]" r.cycles
    r.utilization r.busy_pe_cycles r.stalled_cycles
    (String.concat "; "
       (List.map
          (fun t -> Printf.sprintf "%s r%d w%d" t.tensor t.fetches t.writebacks)
          r.traffic))

let to_json (r : result) : Obs.Json.t =
  let open Obs.Json in
  Obj
    [
      ("cycles", Int r.cycles);
      ("busy_pe_cycles", Int r.busy_pe_cycles);
      ("n_instances", Int r.n_instances);
      ("pe_size", Int r.pe_size);
      ("utilization", Float r.utilization);
      ("stalled_cycles", Int r.stalled_cycles);
      ( "traffic",
        List
          (List.map
             (fun t ->
               Obj
                 [
                   ("tensor", String t.tensor);
                   ( "direction",
                     String
                       (match t.direction with
                       | Ir.Tensor_op.Read -> "in"
                       | Ir.Tensor_op.Write -> "out") );
                   ("fetches", Int t.fetches);
                   ("writebacks", Int t.writebacks);
                 ])
             r.traffic) );
    ]

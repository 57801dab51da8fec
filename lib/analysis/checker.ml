(* The relation-centric model checker (cf. paper Sections III-V).

   For a (op, dataflow, arch) triple the checker proves or refutes — with
   a concrete witness point whenever a property fails on one — the
   battery of properties TENET's metrics implicitly assume:

   - Θ (single-valued by construction for [Dataflow.t]) is injective on
     its domain: one MAC per PE per cycle (TN003);
   - every space stamp lands inside the PE array (TN001/TN002);
   - the schedule is causal: every RAW dependence has a lexicographically
     non-negative time-stamp delta, computed as a relation and checked
     for emptiness of the violating set (TN004);
   - the interconnect relation is well-formed: endpoints inside the
     array, matching rank, no self-loop wires (TN005);
   - reuse-feasibility: the spatial reuse the volume model would credit
     rides only PE pairs an actual wire can carry (TN006);
   - lints: empty domains, unused iterators, unknown iterators,
     degenerate space coordinates (TN007-TN010).

   Every verdict is relational — violating sets are built with the same
   [Isl] algebra the model itself uses — so the checker cannot drift
   from the model's semantics.  Witnesses are sampled from those sets,
   except TN003's: its conflicting pair is read off the concrete
   engine's pass 1 ([Concrete.conflict_pair]), which the relational
   sample took seconds to find.  Two shortcuts keep a check cheap
   without changing any report: TN003 first tries
   [Dataflow.injective_by_construction], a sound certificate read off
   the stamp expressions, and counts Θ only when it fails; TN005's
   findings and TN006's suspect PE pairs depend on the architecture
   alone, so they are computed once per (topology, PE dims). *)

module Isl = Tenet_isl
module Ir = Tenet_ir
module Arch = Tenet_arch
module Df = Tenet_dataflow
module M = Tenet_model
module Obs = Tenet_obs
module D = Diagnostic

let c_checks = Obs.counter "analysis.checks"
let c_certified = Obs.counter "analysis.conflicts_certified"
let c_counted = Obs.counter "analysis.conflicts_counted"

let fmt_point (p : int array) =
  String.concat ", " (Array.to_list (Array.map string_of_int p))

let prime v = v ^ "'"

(* ------------------------------------------------------------------ *)
(* Syntactic lints.                                                    *)
(* ------------------------------------------------------------------ *)

(* TN009: stamp coordinates may only reference iterators of the op. *)
let check_iterator_names (op : Ir.Tensor_op.t) (df : Df.Dataflow.t) :
    D.t list =
  let known = Ir.Tensor_op.iter_names op in
  let bad kind coords =
    List.concat
      (List.mapi
         (fun i e ->
           List.filter_map
             (fun v ->
               if List.mem v known then None
               else
                 Some
                   (D.make "TN009"
                      (Printf.sprintf
                         "%s: %s coordinate %d references '%s', which is \
                          not an iterator of %s (iterators: %s)"
                         df.Df.Dataflow.name kind i v
                         (Ir.Tensor_op.space op).Isl.Space.tuple
                         (String.concat ", " known))))
             (List.sort_uniq String.compare (Isl.Aff.free_vars e)))
         coords)
  in
  bad "space" df.Df.Dataflow.space @ bad "time" df.Df.Dataflow.time

(* TN007: an empty iteration domain makes every metric trivially zero. *)
let check_domain (op : Ir.Tensor_op.t) : D.t list =
  List.filter_map
    (fun v ->
      let lo, hi = Ir.Tensor_op.iter_bounds op v in
      if hi < lo then
        Some
          (D.make "TN007"
             (Printf.sprintf
                "iteration domain is empty: iterator %s has bounds [%d, %d]"
                v lo hi))
      else None)
    (Ir.Tensor_op.iter_names op)

(* TN008: an iterator with extent > 1 absent from every stamp coordinate
   cannot be ordered, so instances collapse onto shared stamps. *)
let check_unused_iterators (op : Ir.Tensor_op.t) (df : Df.Dataflow.t) :
    D.t list =
  let used =
    List.concat_map Isl.Aff.free_vars
      (df.Df.Dataflow.space @ df.Df.Dataflow.time)
  in
  List.filter_map
    (fun v ->
      let lo, hi = Ir.Tensor_op.iter_bounds op v in
      if (not (List.mem v used)) && hi > lo then
        Some
          (D.make "TN008"
             (Printf.sprintf
                "%s: iterator %s (extent %d) appears in no space or time \
                 coordinate"
                df.Df.Dataflow.name v (hi - lo + 1)))
      else None)
    (Ir.Tensor_op.iter_names op)

(* TN010: a constant space coordinate on an array dimension wider than
   one leaves that dimension idle. *)
let check_degenerate_space (op : Ir.Tensor_op.t) (df : Df.Dataflow.t)
    (pe : Arch.Pe_array.t) : D.t list =
  let dims = Arch.Pe_array.dims pe in
  List.concat
    (List.mapi
       (fun i (lo, hi) ->
         if lo = hi && dims.(i) > 1 then
           [
             D.make "TN010"
               (Printf.sprintf
                  "%s: space coordinate %d is the constant %d over the \
                   whole domain; array dimension of extent %d stays idle"
                  df.Df.Dataflow.name i lo dims.(i));
           ]
         else [])
       (Df.Dataflow.space_bounds op df))

(* ------------------------------------------------------------------ *)
(* Θ properties.                                                       *)
(* ------------------------------------------------------------------ *)

(* TN001: space-stamp rank vs array rank. *)
let check_rank (df : Df.Dataflow.t) (pe : Arch.Pe_array.t) : D.t list =
  match Df.Dataflow.rank_violation df pe with
  | None -> []
  | Some (r, ar) ->
      [
        D.make "TN001"
          (Printf.sprintf "%s: space-stamp rank %d vs PE array rank %d"
             df.Df.Dataflow.name r ar);
      ]

(* TN002: space-stamp containment, with a sampled escaping instance. *)
let check_bounds (op : Ir.Tensor_op.t) (df : Df.Dataflow.t)
    (pe : Arch.Pe_array.t) : D.t list =
  match Df.Dataflow.bounds_violation op df pe with
  | None -> []
  | Some (i, (lo, hi), extent) ->
      let witness =
        Option.map
          (fun (wi, n, stamp) ->
            D.witness
              ~note:
                (Printf.sprintf "lands at PE[%s], dim %d out of range"
                   (fmt_point stamp) wi)
              ~space:(Isl.Space.to_string (Ir.Tensor_op.space op))
              n)
          (Df.Dataflow.bounds_witness op df pe)
      in
      [
        D.make "TN002" ?witness
          (Printf.sprintf "%s: space dim %d spans [%d, %d] outside [0, %d)"
             df.Df.Dataflow.name i lo hi extent);
      ]

(* TN003: Θ injectivity on the iteration domain, with a conflicting
   instance pair read off the concrete engine's pass 1.  A Θ the
   certificate proves injective has no conflict, so only an uncertified
   Θ is counted. *)
let check_conflicts (op : Ir.Tensor_op.t) (df : Df.Dataflow.t) : D.t list =
  let certified = Df.Dataflow.injective_by_construction op df in
  Obs.incr (if certified then c_certified else c_counted);
  let conflict = if certified then None else Df.Dataflow.conflict_counts op df in
  match conflict with
  | None -> []
  | Some (pairs, stamps) ->
      let witness =
        Option.map
          (fun (n, n', stamp) ->
            D.witness
              ~note:(Printf.sprintf "both execute at ST[%s]" (fmt_point stamp))
              ~space:
                (Printf.sprintf "%s -> %s'"
                   (Isl.Space.to_string (Ir.Tensor_op.space op))
                   (Ir.Tensor_op.space op).Isl.Space.tuple)
              (Array.append n n'))
          (M.Concrete.conflict_pair op df)
      in
      [
        D.make "TN003" ?witness
          (Printf.sprintf "%s: %d instances map to %d spacetime-stamps"
             df.Df.Dataflow.name pairs stamps);
      ]

(* ------------------------------------------------------------------ *)
(* Schedule causality (TN004).                                         *)
(* ------------------------------------------------------------------ *)

(* For every tensor both written and read, build the memory-based RAW
   dependence relation dep = { n -> n' : W(n) = R(n'), n lex< n' } piece
   by piece (one piece per lexicographic branch position of the program
   order and of the violated time order) and require the violating set
   { (n, n') in dep : t(n') lex< t(n) } to be empty. *)
let check_causality (op : Ir.Tensor_op.t) (df : Df.Dataflow.t) : D.t list =
  let iters = Array.of_list (Ir.Tensor_op.iter_names op) in
  let d = Array.length iters in
  let sspace = Ir.Tensor_op.space op in
  let sspace' =
    Isl.Space.make sspace.Isl.Space.tuple
      (List.map prime (Array.to_list iters))
  in
  let dom = Ir.Tensor_op.domain op in
  let dom' =
    Isl.Set.rename_dims (List.map prime (Array.to_list iters)) dom
  in
  let taff = Array.of_list df.Df.Dataflow.time in
  let taff' = Array.map (Isl.Aff.rename prime) taff in
  let m = Array.length taff in
  let var v = Isl.Aff.Var v in
  let sub a b = Isl.Aff.Sub (a, b) in
  List.concat_map
    (fun tensor ->
      let accs = Ir.Tensor_op.accesses_of op tensor in
      let writes =
        List.filter (fun a -> a.Ir.Tensor_op.direction = Ir.Tensor_op.Write) accs
      in
      let reads =
        List.filter (fun a -> a.Ir.Tensor_op.direction = Ir.Tensor_op.Read) accs
      in
      if writes = [] || reads = [] then []
      else begin
        let arity =
          List.length (List.hd accs).Ir.Tensor_op.subscripts
        in
        let fspace =
          Isl.Space.make tensor
            (List.init arity (Printf.sprintf "f%d"))
        in
        let acc_map sp dset rename a =
          Isl.Map.intersect_domain
            (Isl.Map.of_exprs sp fspace
               (List.map rename a.Ir.Tensor_op.subscripts))
            dset
        in
        let w =
          Isl.Map.union_all (List.map (acc_map sspace dom Fun.id) writes)
        in
        let r' =
          Isl.Map.union_all
            (List.map (acc_map sspace' dom' (Isl.Aff.rename prime)) reads)
        in
        (* same-element pairs S[n] -> S[n'] *)
        let dep0 = Isl.Map.apply_range w (Isl.Map.reverse r') in
        (* piece (a, b): n lex< n' branching at iterator a, and
           t(n') lex< t(n) branching at time dim b *)
        let piece a b =
          let eqs =
            List.init a (fun e ->
                sub (var iters.(e)) (var (prime iters.(e))))
            @ List.init b (fun e -> sub taff'.(e) taff.(e))
          in
          let ges =
            [
              sub (sub (var (prime iters.(a))) (var iters.(a))) (Isl.Aff.Int 1);
              sub (sub taff.(b) taff'.(b)) (Isl.Aff.Int 1);
            ]
          in
          Isl.Map.constrain dep0 ~eqs ~ges
        in
        let total = ref 0 in
        let wit = ref None in
        for a = 0 to d - 1 do
          for b = 0 to m - 1 do
            let viol = piece a b in
            if not (Isl.Map.is_empty viol) then begin
              total := !total + Isl.Map.card viol;
              if !wit = None then
                wit := Isl.Set.sample (Isl.Map.wrap viol)
            end
          done
        done;
        if !total = 0 then []
        else
          let witness =
            Option.map
              (fun p ->
                D.witness
                  ~note:
                    (Printf.sprintf
                       "the write instance runs after the read instance \
                        in time")
                  ~space:
                    (Printf.sprintf "%s -> %s"
                       (Isl.Space.to_string sspace)
                       (Isl.Space.to_string sspace'))
                  p)
              !wit
          in
          [
            D.make "TN004" ?witness
              (Printf.sprintf
                 "%s: tensor %s has %d RAW dependence pair(s) scheduled \
                  backwards in time"
                 df.Df.Dataflow.name tensor !total);
          ]
      end)
    (Ir.Tensor_op.tensors op)

(* ------------------------------------------------------------------ *)
(* Interconnect well-formedness (TN005).                               *)
(* ------------------------------------------------------------------ *)

(* Out-of-bounds pieces of a PE relation: one constrained copy per
   (side, dim, direction), nonempty ones are violations. *)
let oob_pieces (rel : Isl.Map.t) (dims : int array) : Isl.Map.t list =
  let dn = Array.of_list (Isl.Map.dom rel).Isl.Space.dims in
  let rn = Array.of_list (Isl.Map.ran rel).Isl.Space.dims in
  let piece name i lo =
    let v = Isl.Aff.Var name in
    if lo then Isl.Map.constrain rel ~ges:[ Isl.Aff.Sub (Isl.Aff.Int (-1), v) ]
    else Isl.Map.constrain rel ~ges:[ Isl.Aff.Sub (v, Isl.Aff.Int dims.(i)) ]
  in
  List.concat
    (List.init (Array.length dims) (fun i ->
         [
           piece dn.(i) i true;
           piece dn.(i) i false;
           piece rn.(i) i true;
           piece rn.(i) i false;
         ]))

let self_loop_piece (rel : Isl.Map.t) : Isl.Map.t =
  let dn = Array.of_list (Isl.Map.dom rel).Isl.Space.dims in
  let rn = Array.of_list (Isl.Map.ran rel).Isl.Space.dims in
  Isl.Map.constrain rel
    ~eqs:
      (List.init (Array.length dn) (fun i ->
           Isl.Aff.Sub (Isl.Aff.Var dn.(i), Isl.Aff.Var rn.(i))))

let pair_witness (m : Isl.Map.t) ~(note : string) : D.witness option =
  Option.map
    (fun p ->
      D.witness ~note
        ~space:
          (Printf.sprintf "%s -> %s"
             (Isl.Space.to_string (Isl.Map.dom m))
             (Isl.Space.to_string (Isl.Map.ran m)))
        p)
    (Isl.Set.sample (Isl.Map.wrap m))

(* TN005: structural well-formedness of the PE array's interconnect. *)
let arch_diagnostics (pe : Arch.Pe_array.t) (topo : Arch.Interconnect.t) :
    D.t list =
  match Arch.Interconnect.relation topo pe with
  | exception Invalid_argument msg -> [ D.make "TN005" msg ]
  | rel ->
      let r = Arch.Pe_array.rank pe in
      if Isl.Map.n_in rel <> r || Isl.Map.n_out rel <> r then
        [
          D.make "TN005"
            (Printf.sprintf
               "interconnect relation has rank %d -> %d, but the PE array \
                has rank %d"
               (Isl.Map.n_in rel) (Isl.Map.n_out rel) r);
        ]
      else begin
        let dims = Arch.Pe_array.dims pe in
        let oob =
          List.filter_map
            (fun piece ->
              if Isl.Map.is_empty piece then None
              else
                Some
                  (D.make "TN005"
                     ?witness:
                       (pair_witness piece ~note:"endpoint outside the array")
                     (Printf.sprintf
                        "interconnect %s connects PEs outside the %s array"
                        (Arch.Interconnect.name topo)
                        (Arch.Pe_array.to_string pe))))
            (oob_pieces rel dims)
        in
        (* Self-loops are phantom wires when the transfer interval is
           >= 1; at interval 0 the reuse attribution's lex filter drops
           them, so they are not reported. *)
        let selfs =
          if Arch.Interconnect.interval topo >= 1 then begin
            let s = self_loop_piece rel in
            if Isl.Map.is_empty s then []
            else
              [
                D.make "TN005"
                  ?witness:(pair_witness s ~note:"self-loop wire")
                  (Printf.sprintf
                     "interconnect %s contains self-loops at transfer \
                      interval %d; same-PE reuse is the temporal channel"
                     (Arch.Interconnect.name topo)
                     (Arch.Interconnect.interval topo));
              ]
          end
          else []
        in
        (* Report each violation class once. *)
        (match oob with [] -> [] | dg :: _ -> [ dg ]) @ selfs
      end

(* TN006's suspects: the PE pairs of the relation the volume model
   credits spatial reuse along that no wire can carry — self-loops and
   pairs with an endpoint outside the array, which only a malformed
   (custom) topology produces.  [None] when every such piece is empty,
   or when the relation is invalid or either side has the wrong rank
   (TN005 reports those). *)
let reuse_suspects (pe : Arch.Pe_array.t) (topo : Arch.Interconnect.t) :
    Isl.Map.t option =
  let r = Arch.Pe_array.rank pe in
  match Df.Spacetime.reuse_pe_relation pe topo with
  | exception Invalid_argument _ -> None
  | rel when Isl.Map.n_in rel <> r || Isl.Map.n_out rel <> r -> None
  | rel -> (
      match
        List.filter
          (fun m -> not (Isl.Map.is_empty m))
          (self_loop_piece rel :: oob_pieces rel (Arch.Pe_array.dims pe))
      with
      | [] -> None
      | suspects -> Some (Isl.Map.union_all suspects))

(* What a check needs of the architecture alone. *)
type arch_facts = { tn005 : D.t list; suspects : Isl.Map.t option }

(* Memoized per (topology, PE-array dims), as [Concrete.pred_pe_keys] is:
   rebuilding the interconnect relation and testing each of its pieces
   for emptiness cost more than the rest of a check.  The values are
   never mutated after construction. *)
module Arch_memo = Tenet_util.Memo.Make (Arch.Spec.Array_key)

let arch_memo : arch_facts Arch_memo.t =
  Arch_memo.create ~max_entries:Arch.Spec.array_memo_entries ()

let arch_facts (spec : Arch.Spec.t) : arch_facts =
  let key = Arch.Spec.array_key spec in
  match Arch_memo.find arch_memo key with
  | Some f ->
      (* a remembered finding is still emitted: bump its code's counter
         as [D.make] did when it was built *)
      List.iter (fun d -> Obs.count ("analysis." ^ d.D.code)) f.tn005;
      f
  | None ->
      let pe = spec.Arch.Spec.pe and topo = spec.Arch.Spec.topology in
      Arch_memo.add arch_memo key
        { tn005 = arch_diagnostics pe topo; suspects = reuse_suspects pe topo }

(* Structural check of the architecture alone. *)
let check_arch (spec : Arch.Spec.t) : D.t list = (arch_facts spec).tn005

(* ------------------------------------------------------------------ *)
(* Reuse feasibility (TN006).                                          *)
(* ------------------------------------------------------------------ *)

(* The volume model credits spatial reuse along
   [Spacetime.reuse_pe_relation] lifted to spacetime.  The suspect pairs
   are lifted through the *same* construction, and any (stamp, element)
   reuse pair the model would credit along them is a phantom: no wire
   carries it.  Well-formed topologies have no suspects, so the op is
   lifted only for a malformed one. *)
let check_reuse_feasibility ~adjacency (facts : arch_facts)
    (spec : Arch.Spec.t) (op : Ir.Tensor_op.t) (df : Df.Dataflow.t) :
    D.t list =
  match facts.suspects with
  | None -> []
  | Some bad_rel ->
      let dt = Arch.Interconnect.interval spec.Arch.Spec.topology in
      let ch = Df.Spacetime.spatial_of_rel ~adjacency op df ~rel:bad_rel ~dt in
      List.concat_map
        (fun tensor ->
          let a = Df.Dataflow.data_assignment op df tensor in
          let credited =
            M.Volumes.reuse_map ~assignment:a ~m:ch.Df.Spacetime.m
          in
          let n = Isl.Map.card credited in
          if n = 0 then []
          else
            [
              D.make "TN006"
                ?witness:
                  (pair_witness credited
                     ~note:
                       "(stamp, element) reuse pair riding an infeasible \
                        PE pair")
                (Printf.sprintf
                   "%s: tensor %s has %d spatial-reuse pair(s) credited \
                    along interconnect pairs no wire can carry \
                    (self-loops or out-of-array endpoints)"
                   df.Df.Dataflow.name tensor n);
            ])
        (Ir.Tensor_op.tensors op)

(* ------------------------------------------------------------------ *)
(* Drivers.                                                            *)
(* ------------------------------------------------------------------ *)

(* The full battery for one (op, dataflow, arch) triple.  The result is
   sorted by (code, witness, message) so a report is byte-identical
   however the individual checks are scheduled. *)
let check ?(adjacency = `Inner_step) (spec : Arch.Spec.t)
    (op : Ir.Tensor_op.t) (df : Df.Dataflow.t) : D.t list =
  Obs.incr c_checks;
  Obs.with_span "analysis.check" @@ fun () ->
  let pe = spec.Arch.Spec.pe in
  let sorted = List.sort D.compare_diag in
  let lints = check_iterator_names op df in
  if D.errors lints <> [] then sorted lints
  else begin
    let empty_domain = check_domain op in
    let facts = arch_facts spec in
    let base =
      lints @ empty_domain
      @ check_unused_iterators op df
      @ facts.tn005 @ check_rank df pe
    in
    (* An empty domain makes the interval and counting checks vacuous
       (and their bound arithmetic meaningless), so stop at the lints. *)
    if Df.Dataflow.rank_violation df pe <> None || empty_domain <> [] then
      sorted base
    else begin
      let bounds = check_bounds op df pe in
      let base =
        base @ check_degenerate_space op df pe @ bounds
        @ check_conflicts op df @ check_causality op df
      in
      (* Reuse feasibility presumes stamps inside the array. *)
      let base =
        if bounds = [] then
          base @ check_reuse_feasibility ~adjacency facts spec op df
        else base
      in
      (* Resource feasibility (TN014-TN018) presumes a structurally
         clean mapping: capacity demand is only meaningful when Θ is
         injective and lands inside the array. *)
      let base =
        if D.errors base = [] then base @ Capacity.check spec op df
        else base
      in
      sorted base
    end
  end

(* The cheap subset of [check] that pre-filters DSE candidates: whether
   a candidate escapes TN009 (unknown iterators), TN001 (rank) and TN002
   (interval bounds), with no counting, witness search or diagnostic per
   candidate.  One closure per (arch, op) pair.  The conjuncts keep
   [check]'s order: unknown iterators first (the later checks assume
   resolvable names), then rank, then interval bounds. *)
let prechecker (spec : Arch.Spec.t) (op : Ir.Tensor_op.t) :
    Df.Dataflow.t -> bool =
  let pe = spec.Arch.Spec.pe in
  let module S = Set.Make (String) in
  let known = S.of_list (Ir.Tensor_op.iter_names op) in
  fun df ->
    List.for_all
      (fun e -> List.for_all (fun v -> S.mem v known) (Isl.Aff.free_vars e))
      (df.Df.Dataflow.space @ df.Df.Dataflow.time)
    && Df.Dataflow.rank_violation df pe = None
    && Df.Dataflow.bounds_violation op df pe = None

(* ------------------------------------------------------------------ *)
(* The Zoo x Repository sweep.                                         *)
(* ------------------------------------------------------------------ *)

type subject = {
  s_arch : string;
  s_kernel : string;
  s_spec : Arch.Spec.t;
  s_op : Ir.Tensor_op.t;
  s_df : Df.Dataflow.t;
}

(* Every Table III dataflow paired with every repository architecture of
   matching rank, at the experiment sizes of the paper (2D families at
   width 8, which fits every 2D array in the repository; 1D families at
   width 64); the Eyeriss row-stationary dataflow additionally runs on
   its native 12x14 shape. *)
let zoo_subjects () : subject list =
  let gemm = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:16 in
  let conv = Ir.Kernels.conv2d ~nk:16 ~nc:16 ~nox:8 ~noy:8 ~nrx:3 ~nry:3 in
  let conv13 =
    Ir.Kernels.conv2d ~nk:16 ~nc:16 ~nox:13 ~noy:13 ~nrx:3 ~nry:3
  in
  let mttkrp = Ir.Kernels.mttkrp ~ni:8 ~nj:8 ~nk:8 ~nl:8 in
  let jacobi = Ir.Kernels.jacobi2d ~n:18 in
  let mmc = Ir.Kernels.mmc ~ni:8 ~nj:8 ~nk:8 ~nl:8 in
  let two_d =
    [
      ("gemm", gemm, Df.Zoo.gemm_2d ());
      ( "conv",
        conv,
        [
          Df.Zoo.conv_kc_p_oy_kcox_t ();
          Df.Zoo.conv_kox_p_oy_koxc_t ();
          Df.Zoo.conv_kc_p_c_kox_t ();
          Df.Zoo.conv_shidiannao ();
          Df.Zoo.conv_nvdla ();
        ] );
      ("mttkrp", mttkrp, Df.Zoo.mttkrp_all ());
      ("jacobi2d", jacobi, [ Df.Zoo.jacobi_ij_p_ij_t () ]);
      ("mmc", mmc, Df.Zoo.mmc_all ());
    ]
  in
  let one_d =
    [
      ("gemm", gemm, Df.Zoo.gemm_1d ());
      ( "conv",
        conv,
        [
          Df.Zoo.conv_k_p_ox_oy_t ();
          Df.Zoo.conv_c_p_oy_ox_t ();
          Df.Zoo.conv_maeri ();
        ] );
      ("jacobi2d", jacobi, [ Df.Zoo.jacobi_i_p_ij_t () ]);
    ]
  in
  List.concat_map
    (fun (aname, spec) ->
      let rank = Arch.Pe_array.rank spec.Arch.Spec.pe in
      let families = if rank = 2 then two_d else one_d in
      let base =
        List.concat_map
          (fun (kernel, op, dfs) ->
            List.map
              (fun df ->
                {
                  s_arch = aname;
                  s_kernel = kernel;
                  s_spec = spec;
                  s_op = op;
                  s_df = df;
                })
              dfs)
          families
      in
      if String.equal aname "eyeriss-12x14" then
        base
        @ [
            {
              s_arch = aname;
              s_kernel = "conv";
              s_spec = spec;
              s_op = conv13;
              s_df = Df.Zoo.conv_eyeriss_rs ();
            };
          ]
      else base)
    Arch.Repository.all

let check_subjects ?adjacency (subjects : subject list) :
    (subject * D.t list) list =
  List.map (fun s -> (s, check ?adjacency s.s_spec s.s_op s.s_df)) subjects

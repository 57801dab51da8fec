(* dse_mapper: the Section VI-B pattern.  Each op is one pruned,
   latency-objective mapping search (Dse.search) over the 2D or 1D
   candidate generator for one (layer, arch) pair.

   Layers are channel-reduced convolutions from the Workloads.Layers
   networks (3x3 and pointwise) plus GEMM, MTTKRP and MMc shapes.  The
   archs are the square 8x8 arrays (symmetry pruning applies), the
   12x14 Eyeriss array (it does not) and a 1D systolic array.  Half the
   ops run on specs that declare capacities, some tight enough that the
   capacity tier prunes. *)

module Ir = Tenet.Ir
module Arch = Tenet.Arch
module Df = Tenet.Dataflow
module M = Tenet.Model
module Dse = Tenet.Dse.Dse
module Sim = Tenet.Sim.Simulator
module L = Tenet.Workloads.Layers
module H = Harness
open Common

let name = "dse_mapper"
let archs = [ "tpu-8x8-systolic"; "mesh-8x8"; "eyeriss-12x14"; "systolic-64x1" ]

type capacity = Plain | Roomy | Snug | Tight

let capacity_name = function
  | Plain -> "plain"
  | Roomy -> "roomy"
  | Snug -> "snug"
  | Tight -> "tight"

(* Roomy proves every candidate feasible; snug (256 B scratchpad) and
   tight (64 B) make the capacity tier reject some of them.  A 64 B
   scratchpad leaves the 1D array no feasible mapping for most shapes,
   so it gets snug in place of tight. *)
let with_capacity (c : capacity) (spec : Arch.Spec.t) : Arch.Spec.t =
  match c with
  | Plain -> spec
  | Roomy ->
      Arch.Spec.with_capacities ~scratchpad_bytes:(1 lsl 22) ~pe_regs:64
        ~link_width:8 ~pe_ports:8 ~max_fanout:64 ~dram_bw:4096 spec
  | Snug -> Arch.Spec.with_capacities ~scratchpad_bytes:256 spec
  | Tight -> Arch.Spec.with_capacities ~scratchpad_bytes:64 spec

type subject = {
  arch : string;
  capacity : capacity;
  layer : string;
  kernel : string;
  sizes : int list;
}

(* Per arch, every shape runs twice: once on the plain spec and once on
   a spec that declares capacities (the tier rotates over the shapes).
   The seed picks the network layer each convolution is named after,
   the orientation of each GEMM/MTTKRP/MMc shape and the op order, so
   the work in a pass is the same for every seed. *)
let shapes =
  [
    ("conv", [ [ 4; 2; 4; 4; 3; 3 ] ]);
    ("pwconv", [ [ 8; 4; 4; 4; 1; 1 ] ]);
    ("gemm", [ [ 8; 8; 4 ]; [ 8; 12; 8 ]; [ 12; 16; 8 ]; [ 16; 16; 12 ]; [ 8; 16; 12 ] ]);
    ("mttkrp", [ [ 6; 6; 2; 2 ]; [ 6; 8; 4; 2 ]; [ 8; 8; 4; 4 ] ]);
    ("mmc", [ [ 6; 6; 2; 2 ]; [ 6; 8; 2; 4 ]; [ 8; 8; 4; 4 ] ]);
  ]

(* The 3x3 (or pointwise) convolutions of the Workloads.Layers networks,
   whose channels and outputs the shapes above reduce. *)
let conv_layers ~pointwise =
  List.concat_map
    (fun (_, layers) ->
      List.filter_map
        (fun (l : L.layer) ->
          let lo, hi = Ir.Tensor_op.iter_bounds l.L.op "rx" in
          if l.L.kind = L.Conv && (hi - lo = 0) = pointwise then Some l.L.lname else None)
        layers)
    L.all_networks

let subject rng arch kind capacity sizes =
  match (kind, sizes) with
  | ("conv" | "pwconv"), _ ->
      let layer = pick rng (conv_layers ~pointwise:(kind = "pwconv")) in
      { arch; capacity; layer; kernel = "conv"; sizes }
  | _, i :: j :: rest ->
      (* the first two dims swap roles: same work, another input *)
      let sizes = if Random.State.bool rng then j :: i :: rest else sizes in
      { arch; capacity; layer = kind; kernel = kind; sizes }
  | _ -> invalid_arg kind

let subjects ~(seed : int) : subject array =
  let rng = Random.State.make [| seed; 0xd5e |] in
  let subjects =
    List.concat_map
      (fun arch ->
        let tiers =
          if arch = "systolic-64x1" then [| Roomy; Snug; Snug |]
          else [| Roomy; Snug; Tight |]
        in
        List.concat
          (List.mapi
             (fun j (kind, sizes) ->
               [
                 subject rng arch kind Plain sizes;
                 subject rng arch kind tiers.(j mod 3) sizes;
               ])
             (List.concat_map (fun (kind, l) -> List.map (fun s -> (kind, s)) l) shapes)))
      archs
    |> Array.of_list
  in
  shuffle rng subjects;
  subjects

let render (s : subject) : string =
  Printf.sprintf "%s/%s %s %s[%s]" s.arch (capacity_name s.capacity) s.layer s.kernel
    (sizes_text s.sizes)

let inputs ~seed = Array.to_list (Array.map render (subjects ~seed))

type search = {
  spec : Arch.Spec.t;
  op : Ir.Tensor_op.t;
  cands : Df.Dataflow.t list;
}

let build (s : subject) : search =
  let spec = with_capacity s.capacity (Arch.Repository.find s.arch) in
  let op = kernel_of s.kernel s.sizes in
  let pe = spec.Arch.Spec.pe in
  let p = (Arch.Pe_array.dims pe).(0) in
  let cands =
    if Arch.Pe_array.rank pe = 2 then Dse.candidates_2d op ~p
    else Dse.candidates_1d op ~p
  in
  { spec; op; cands }

let stats_text (st : Dse.stats) : string =
  Printf.sprintf "gen=%d pre=%d sym=%d cap=%d dom=%d eval=%d" st.Dse.generated
    st.Dse.pruned_precheck st.Dse.pruned_symmetry st.Dse.pruned_capacity
    st.Dse.pruned_dominated st.Dse.evaluated

let workload ~(seed : int) : H.workload =
  let subjects = subjects ~seed in
  let n = Array.length subjects in
  let setup () =
    let searches = Array.map build subjects in
    let results = Array.make n None in
    let op i =
      let s = searches.(i) in
      let r =
        H.call H.dse (fun () ->
            Dse.search ~mode:Dse.Pruned ~objective:Dse.Latency s.spec s.op s.cands)
      in
      fun () ->
        results.(i) <- Some r;
        let st = r.Dse.stats in
        let parts =
          st.Dse.pruned_precheck + st.Dse.pruned_symmetry + st.Dse.pruned_capacity
          + st.Dse.pruned_dominated + st.Dse.evaluated
        in
        let error =
          if st.Dse.generated <> List.length s.cands then
            Some (Printf.sprintf "generated %d of %d candidates" st.Dse.generated
                    (List.length s.cands))
          else if parts <> st.Dse.generated then
            Some ("stats do not partition the candidates: " ^ stats_text st)
          else if r.Dse.outcomes = [] then Some "no valid mapping"
          else None
        in
        let top =
          List.filteri (fun k _ -> k < 3) r.Dse.outcomes
          |> List.map (fun o -> metrics_text o.Dse.dataflow o.Dse.metrics)
        in
        H.check ?error (String.concat "\n" (stats_text st :: top))
    in
    let summary ~full =
      let sum f =
        Array.fold_left
          (fun acc r ->
            match r with Some r -> acc +. float_of_int (f r.Dse.stats) | None -> acc)
          0. results
      in
      (* The model against the simulator on one fixed mapping per
         search, the first candidate that passes the checker's precheck
         and analyzes: unlike the search's choice, it moves only when
         the model or the simulator does (first round only;
         deterministic). *)
      let model_err_pct =
        if not full then nan
        else
          100.
          *. mean
               (Array.to_list
                  (Array.map
                     (fun s ->
                       let pc = Tenet.Analysis.Checker.prechecker s.spec s.op in
                       let rec first = function
                         | [] -> failwith "no candidate passes the precheck"
                         | df :: rest -> (
                             match
                               if pc df then Some (M.Concrete.analyze s.spec s.op df)
                               else None
                             with
                             | Some m -> (df, m)
                             | None | (exception _) -> first rest)
                       in
                       let df, m = first s.cands in
                       let sim = Sim.run s.spec s.op df in
                       rel_err ~model:m.M.Metrics.latency_stamped ~cycles:sim.Sim.cycles)
                     searches))
      in
      let share p =
        float_of_int (Array.fold_left (fun k s -> if p s then k + 1 else k) 0 subjects)
        /. float_of_int n
      in
      {
        H.model_err_pct;
        counts =
          [
            ("dse.generated", sum (fun s -> s.Dse.generated));
            ("dse.evaluated", sum (fun s -> s.Dse.evaluated));
            ("dse.pruned_precheck", sum (fun s -> s.Dse.pruned_precheck));
            ("dse.pruned_symmetry", sum (fun s -> s.Dse.pruned_symmetry));
            ("dse.pruned_capacity", sum (fun s -> s.Dse.pruned_capacity));
            ("dse.pruned_dominated", sum (fun s -> s.Dse.pruned_dominated));
          ];
        shares =
          [
            ("capacity_declared_share", share (fun s -> s.capacity <> Plain));
            ( "capacity_tight_share",
              share (fun s -> s.capacity = Snug || s.capacity = Tight) );
            ( "square_array_share",
              share (fun s -> s.arch = "tpu-8x8-systolic" || s.arch = "mesh-8x8") );
          ];
        failures = [];
        op_class = (fun _ -> "");
      }
    in
    { H.n_ops = n; op; summary }
  in
  {
    H.name;
    round_s = 4.2;
    setup_reps = 9;
    reset = (fun () -> Tenet.Isl.Count.cache_clear ());
    setup;
  }

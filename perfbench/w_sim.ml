(* sim_groundtruth: the Figure 11 pattern.  Each op runs the
   cycle-level simulator on one (repository arch, zoo dataflow, size,
   window, bandwidth) triple, then the concrete model on the same
   triple with lex-step adjacency and the same register window, and
   scores the model's stamped latency against the simulated cycles.

   The pass visits every (arch, dataflow) pair the same number of
   times, with the same windows and bandwidths, so its composition (and
   with it model_err_pct and the pass time) barely moves with the seed;
   the seed draws the sizes and the visit order.  Windows > 1 take the
   register-window path and the bandwidth-limited visits the stall
   path. *)

module Ir = Tenet.Ir
module Arch = Tenet.Arch
module Df = Tenet.Dataflow
module M = Tenet.Model
module Sim = Tenet.Sim.Simulator
module An = Tenet.Analysis
module H = Harness
open Common

let name = "sim_groundtruth"
let visits = 14

type subject = {
  arch : string;
  bandwidth : int option;  (** [None]: the repository default *)
  kernel : string;
  sizes : int list;
  df : string;  (** qualified zoo name *)
  window : int;
}

let sizes rng = function
  | "gemm" -> [ range rng 6 10; range rng 6 10; range rng 6 10 ]
  | "conv" ->
      let o = range rng 4 5 in
      [ range rng 2 3; 2; o; o; 3; 3 ]
  | "mttkrp" | "mmc" -> [ range rng 6 8; range rng 6 8; range rng 3 4; range rng 3 4 ]
  | "jacobi2d" -> [ range rng 10 24 ]
  | k -> invalid_arg ("unknown kernel " ^ k)

(* Every visit v of a pair is one stratum: v mod 3 = 2 takes a register
   window of 2-4, odd v a scratchpad bandwidth of 1-4 words/cycle, both
   fixed per visit, so that each seed runs the same mix of paths. *)
let window_of v = if v mod 3 = 2 then 2 + (v / 3 mod 3) else 1
let bandwidth_of v = if v mod 2 = 1 then Some [| 1; 2; 4 |].(v / 2 mod 3) else None

let subjects ~(seed : int) : subject array =
  let rng = Random.State.make [| seed; 0x5117 |] in
  let subjects =
    List.concat_map
      (fun (kernel, df, arch) ->
        List.init visits (fun v ->
            {
              arch;
              bandwidth = bandwidth_of v;
              kernel;
              sizes = sizes rng kernel;
              df;
              window = window_of v;
            }))
      zoo_pairs
    |> Array.of_list
  in
  shuffle rng subjects;
  subjects

let render (s : subject) : string =
  Printf.sprintf "%s bw=%s %s[%s] %s window=%d" s.arch
    (match s.bandwidth with Some b -> string_of_int b | None -> "default")
    s.kernel (sizes_text s.sizes) s.df s.window

let inputs ~seed = Array.to_list (Array.map render (subjects ~seed))

type triple = {
  spec : Arch.Spec.t;
  op : Ir.Tensor_op.t;
  dflow : Df.Dataflow.t;
  errors : int;  (** checker errors: a triple with any fails its op *)
}

let build (s : subject) : triple =
  let spec = Arch.Repository.find s.arch in
  let spec =
    match s.bandwidth with Some b -> Arch.Spec.with_bandwidth b spec | None -> spec
  in
  let op = kernel_of s.kernel s.sizes in
  let dflow = Df.Zoo.find s.df in
  let errors =
    List.length
      (An.Diagnostic.errors
         (H.call H.analysis (fun () -> An.Checker.check spec op dflow)))
  in
  { spec; op; dflow; errors }

let workload ~(seed : int) : H.workload =
  let subjects = subjects ~seed in
  let n = Array.length subjects in
  let setup () =
    let triples = Array.map build subjects in
    let errs = Array.make n 0. and cycles = Array.make n 0 in
    let op i =
      let s = subjects.(i) and t = triples.(i) in
      let r = H.call H.sim (fun () -> Sim.run ~window:s.window t.spec t.op t.dflow) in
      let m =
        H.call H.model (fun () ->
            M.Concrete.analyze ~adjacency:`Lex_step ~window:s.window t.spec t.op t.dflow)
      in
      fun () ->
        let c = r.Sim.cycles in
        cycles.(i) <- c;
        errs.(i) <- rel_err ~model:m.M.Metrics.latency_stamped ~cycles:c;
        let error =
          if t.errors > 0 then Some (Printf.sprintf "checker: %d errors" t.errors)
          else if r.Sim.n_instances <> m.M.Metrics.n_instances then
            Some
              (Printf.sprintf "simulator has %d instances, model %d" r.Sim.n_instances
                 m.M.Metrics.n_instances)
          else None
        in
        H.check ?error (Tenet.Obs.Json.to_string (Sim.to_json r) ^ metrics_text t.dflow m)
    in
    let summary ~full:_ =
      let share p =
        float_of_int (Array.fold_left (fun k s -> if p s then k + 1 else k) 0 subjects)
        /. float_of_int n
      in
      {
        H.model_err_pct = 100. *. Array.fold_left ( +. ) 0. errs /. float_of_int n;
        counts = [ ("sim.cycles_total", float_of_int (Array.fold_left ( + ) 0 cycles)) ];
        shares =
          [
            ("window_gt1_share", share (fun s -> s.window > 1));
            ("bandwidth_limited_share", share (fun s -> s.bandwidth <> None));
          ];
        failures = [];
        op_class = (fun _ -> "");
      }
    in
    { H.n_ops = n; op; summary }
  in
  {
    H.name;
    round_s = 5.;
    setup_reps = 1;
    reset = (fun () -> Tenet.Isl.Count.cache_clear ());
    setup;
  }

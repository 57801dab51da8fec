(* The TENET performance model (paper Section V): volumes per tensor, PE
   utilization, latency, bandwidth requirements and energy, all computed
   by counting relations. *)

module Isl = Tenet_isl
module Ir = Tenet_ir
module Arch = Tenet_arch
module Df = Tenet_dataflow
module Obs = Tenet_obs

let c_relational = Obs.counter "model.relational_analyses"

exception Invalid_dataflow of string

(* Entry-point note: [analyze] is an engine-level primitive under
   Tenet_serve.Api.run, the one request-level entry point the CLI,
   `tenet batch` and `tenet serve` share.  Request-level callers
   (deadlines, structured errors, the cross-request result cache) should
   construct a Serve.Api.Request.t instead of calling it directly. *)

(* Per-time-stamp occupancy, shared by utilization and timestamp count:
   walk Θ's pairs once, bucketing instances by time-stamp.  Injectivity
   (validated separately) makes instances-per-stamp equal active PEs.
   Stamps are mixed-radix-encoded into a single int against the
   dataflow's time bounds (every Θ range point evaluates the time
   expressions over the iteration domain, so it lies inside them) —
   hashing a boxed int instead of allocating an [Array.sub] per pair. *)
let stamp_histogram (th : Isl.Map.t) ~n_space
    ~(time_bounds : (int * int) list) =
  let lo = Array.of_list (List.map fst time_bounds) in
  let width = Array.of_list (List.map (fun (l, h) -> h - l + 1) time_bounds) in
  let n_time = Array.length lo in
  let tbl : (int, int ref) Hashtbl.t = Hashtbl.create 4096 in
  Isl.Map.iter_pairs
    (fun _src dst ->
      let key = ref 0 in
      for i = 0 to n_time - 1 do
        key := (!key * width.(i)) + (dst.(n_space + i) - lo.(i))
      done;
      match Hashtbl.find_opt tbl !key with
      | Some r -> incr r
      | None -> Hashtbl.add tbl !key (ref 1))
    th;
  tbl

let analyze ?(adjacency = `Inner_step) ?(validate = true)
    (spec : Arch.Spec.t) (op : Ir.Tensor_op.t) (df : Df.Dataflow.t) :
    Metrics.t =
  Obs.with_span ~args:[ ("dataflow", df.Df.Dataflow.name) ] "model.analyze"
  @@ fun () ->
  Obs.incr c_relational;
  (* refuse an instance space past the int range before any relation is
     built: its counts would wrap, and walking its pairs would not end *)
  (try ignore (Concrete.instance_count op)
   with Concrete.Invalid_dataflow msg -> raise (Invalid_dataflow msg));
  if validate then begin
    match Df.Dataflow.first_violation op df spec.Arch.Spec.pe with
    | None -> ()
    | Some msg -> raise (Invalid_dataflow msg)
  end;
  let th = Obs.with_span "model.theta" (fun () -> Df.Dataflow.theta op df) in
  let channels =
    Obs.with_span "model.channels" (fun () ->
        Df.Spacetime.channels ~adjacency spec op df)
  in
  let per_tensor =
    List.map
      (fun tensor ->
        Obs.with_span ~args:[ ("tensor", tensor) ] "model.volumes"
        @@ fun () ->
        let assignment = Df.Dataflow.data_assignment op df tensor in
        let volumes = Volumes.compute ~assignment ~channels in
        let direction =
          if List.mem tensor (Ir.Tensor_op.outputs op) then
            Ir.Tensor_op.Write
          else Ir.Tensor_op.Read
        in
        {
          Metrics.tensor;
          direction;
          volumes;
          footprint = Ir.Tensor_op.footprint op tensor;
        })
      (Ir.Tensor_op.tensors op)
  in
  let hist =
    Obs.with_span "model.stamp_histogram" (fun () ->
        stamp_histogram th ~n_space:(Df.Dataflow.n_space df)
          ~time_bounds:(Df.Dataflow.time_bounds op df))
  in
  Metrics.assemble ~spec ~dataflow:df.Df.Dataflow.name ~per_tensor
    ~n_instances:(Ir.Tensor_op.n_instances op)
    ~n_timestamps:(Hashtbl.length hist)
    ~busiest:(Hashtbl.fold (fun _ r acc -> max acc !r) hist 0)
    ()

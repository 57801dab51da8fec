(* Result records of the performance model (paper Section V). *)

type volumes = {
  total : int; (* TotalVolume: all (stamp, element) accesses *)
  temporal_reuse : int; (* reused from the same PE's previous stamp *)
  spatial_reuse : int; (* reused over the interconnect (and not temporally) *)
  unique : int; (* TotalVolume - ReuseVolume: scratchpad traffic *)
}

let reuse v = v.temporal_reuse + v.spatial_reuse

let reuse_factor v =
  if v.unique = 0 then Float.infinity
  else float_of_int v.total /. float_of_int v.unique

type tensor_metrics = {
  tensor : string;
  direction : Tenet_ir.Tensor_op.direction;
  volumes : volumes;
  footprint : int; (* distinct elements touched *)
}

type t = {
  dataflow : string;
  per_tensor : tensor_metrics list;
  n_instances : int; (* card D_S = number of MACs *)
  n_timestamps : int; (* distinct time-stamps = compute cycles *)
  pe_size : int;
  avg_utilization : float; (* instances / (pe_size * timestamps) *)
  max_utilization : float; (* busiest stamp / pe_size *)
  delay_compute : int; (* cycles: one time-stamp per cycle *)
  delay_read : float; (* unique input volume / bandwidth *)
  delay_write : float; (* unique output volume / bandwidth *)
  latency : float; (* max(compute, read + write) *)
  latency_stamped : float;
      (* sum over stamps of max(1, traffic_t / bandwidth): accounts for
         bursty per-stamp traffic the overlap formula hides *)
  ibw : float; (* interconnect bandwidth: spatial reuse / compute *)
  sbw : float; (* scratchpad bandwidth: unique volume / compute *)
  energy : float; (* Energy model units (MAC = 1) *)
}

let find_tensor t name =
  List.find (fun tm -> String.equal tm.tensor name) t.per_tensor

let sum_tensors f per_tensor =
  List.fold_left (fun acc tm -> acc + f tm) 0 per_tensor

let unique_in dir tm = if tm.direction = dir then tm.volumes.unique else 0

let unique_inputs t =
  sum_tensors (unique_in Tenet_ir.Tensor_op.Read) t.per_tensor

let unique_outputs t =
  sum_tensors (unique_in Tenet_ir.Tensor_op.Write) t.per_tensor

(* Every derived metric from the counted ones: utilization, Eqs. 7-10
   and the double-buffered latency of Section V-B.  Each engine counts;
   this one function prices the counts, so equal counts give equal
   records, floats included, whichever engine produced them. *)
let assemble ~(spec : Tenet_arch.Spec.t) ~dataflow ~per_tensor ~n_instances
    ~n_timestamps ~busiest ?stamped_cycles () : t =
  let open Tenet_arch in
  let n_timestamps = max 1 n_timestamps in
  let pe_size = Pe_array.size spec.Spec.pe in
  let sum f = sum_tensors f per_tensor in
  let unique = sum (fun tm -> tm.volumes.unique)
  and spatial = sum (fun tm -> tm.volumes.spatial_reuse) in
  let bw = float_of_int spec.Spec.bandwidth in
  let delay_read =
    float_of_int (sum (unique_in Tenet_ir.Tensor_op.Read)) /. bw
  in
  let delay_write =
    float_of_int (sum (unique_in Tenet_ir.Tensor_op.Write)) /. bw
  in
  (* buffers, networks and arithmetic are pipelined with double
     buffering: latency is the maximum of computation and communication *)
  let latency =
    Float.max (float_of_int n_timestamps) (delay_read +. delay_write)
  in
  let e = spec.Spec.energy in
  {
    dataflow;
    per_tensor;
    n_instances;
    n_timestamps;
    pe_size;
    avg_utilization =
      float_of_int n_instances /. float_of_int (pe_size * n_timestamps);
    max_utilization = float_of_int busiest /. float_of_int pe_size;
    delay_compute = n_timestamps;
    delay_read;
    delay_write;
    latency;
    latency_stamped =
      (match stamped_cycles with Some c -> float_of_int c | None -> latency);
    ibw = float_of_int spatial /. float_of_int n_timestamps;
    sbw = float_of_int unique /. float_of_int n_timestamps;
    energy =
      (float_of_int n_instances *. e.Energy.mac)
      +. (float_of_int (sum (fun tm -> tm.volumes.total)) *. e.Energy.reg)
      +. (float_of_int unique *. e.Energy.spm)
      +. (float_of_int spatial *. e.Energy.link);
  }

let pp_row fmt t =
  Format.fprintf fmt
    "%-24s lat=%10.1f cyc=%8d util(avg/max)=%4.2f/%4.2f sbw=%6.2f ibw=%6.2f \
     energy=%12.1f"
    t.dataflow t.latency t.delay_compute t.avg_utilization t.max_utilization
    t.sbw t.ibw t.energy

let to_string t = Format.asprintf "%a" pp_row t

(* Machine-readable form, consumed by the CLI's --json/--stats outputs and
   the bench timing files.  Keys are stable: tests round-trip this through
   Tenet_obs.Json.parse. *)
let volumes_to_json (v : volumes) : Tenet_obs.Json.t =
  Tenet_obs.Json.Obj
    [
      ("total", Tenet_obs.Json.Int v.total);
      ("temporal_reuse", Tenet_obs.Json.Int v.temporal_reuse);
      ("spatial_reuse", Tenet_obs.Json.Int v.spatial_reuse);
      ("unique", Tenet_obs.Json.Int v.unique);
    ]

let to_json (t : t) : Tenet_obs.Json.t =
  let open Tenet_obs.Json in
  Obj
    [
      ("dataflow", String t.dataflow);
      ("n_instances", Int t.n_instances);
      ("n_timestamps", Int t.n_timestamps);
      ("pe_size", Int t.pe_size);
      ("avg_utilization", Float t.avg_utilization);
      ("max_utilization", Float t.max_utilization);
      ("delay_compute", Int t.delay_compute);
      ("delay_read", Float t.delay_read);
      ("delay_write", Float t.delay_write);
      ("latency", Float t.latency);
      ("latency_stamped", Float t.latency_stamped);
      ("ibw", Float t.ibw);
      ("sbw", Float t.sbw);
      ("energy", Float t.energy);
      ( "per_tensor",
        List
          (List.map
             (fun tm ->
               Obj
                 [
                   ("tensor", String tm.tensor);
                   ( "direction",
                     String
                       (match tm.direction with
                       | Tenet_ir.Tensor_op.Read -> "in"
                       | Tenet_ir.Tensor_op.Write -> "out") );
                   ("footprint", Int tm.footprint);
                   ("volumes", volumes_to_json tm.volumes);
                 ])
             t.per_tensor) );
    ]

(* Total inverse of [to_json], so responses cached or shipped over the
   serve protocol round-trip exactly (floats print via the
   shortest-exact form in Tenet_obs.Json). *)
let of_json (j : Tenet_obs.Json.t) : (t, string) result =
  let module J = Tenet_obs.Json in
  let ( let* ) = Result.bind in
  let field name conv j =
    match J.member name j with
    | None -> Error (Printf.sprintf "metrics: missing field %S" name)
    | Some v -> (
        match conv v with
        | Some x -> Ok x
        | None -> Error (Printf.sprintf "metrics: bad field %S" name))
  in
  let int_f n = field n J.to_int in
  let float_f n = field n J.to_float in
  let str_f n = field n J.to_str in
  let volumes_of_json v =
    let* total = int_f "total" v in
    let* temporal_reuse = int_f "temporal_reuse" v in
    let* spatial_reuse = int_f "spatial_reuse" v in
    let* unique = int_f "unique" v in
    Ok { total; temporal_reuse; spatial_reuse; unique }
  in
  let tensor_of_json v =
    let* tensor = str_f "tensor" v in
    let* dir = str_f "direction" v in
    let* direction =
      match dir with
      | "in" -> Ok Tenet_ir.Tensor_op.Read
      | "out" -> Ok Tenet_ir.Tensor_op.Write
      | d -> Error (Printf.sprintf "metrics: bad direction %S" d)
    in
    let* footprint = int_f "footprint" v in
    let* volumes = field "volumes" Option.some v in
    let* volumes = volumes_of_json volumes in
    Ok { tensor; direction; volumes; footprint }
  in
  let* dataflow = str_f "dataflow" j in
  let* n_instances = int_f "n_instances" j in
  let* n_timestamps = int_f "n_timestamps" j in
  let* pe_size = int_f "pe_size" j in
  let* avg_utilization = float_f "avg_utilization" j in
  let* max_utilization = float_f "max_utilization" j in
  let* delay_compute = int_f "delay_compute" j in
  let* delay_read = float_f "delay_read" j in
  let* delay_write = float_f "delay_write" j in
  let* latency = float_f "latency" j in
  let* latency_stamped = float_f "latency_stamped" j in
  let* ibw = float_f "ibw" j in
  let* sbw = float_f "sbw" j in
  let* energy = float_f "energy" j in
  let* rows = field "per_tensor" J.to_list j in
  let* per_tensor =
    List.fold_left
      (fun acc row ->
        let* acc = acc in
        let* tm = tensor_of_json row in
        Ok (tm :: acc))
      (Ok []) rows
  in
  Ok
    {
      dataflow;
      per_tensor = List.rev per_tensor;
      n_instances;
      n_timestamps;
      pe_size;
      avg_utilization;
      max_utilization;
      delay_compute;
      delay_read;
      delay_write;
      latency;
      latency_stamped;
      ibw;
      sbw;
      energy;
    }

let pp_tensor_row fmt tm =
  let v = tm.volumes in
  Format.fprintf fmt
    "%-3s %-6s total=%-10d uniq=%-10d reuseT=%-10d reuseS=%-10d factor=%6.2f"
    tm.tensor
    (match tm.direction with
    | Tenet_ir.Tensor_op.Read -> "in"
    | Tenet_ir.Tensor_op.Write -> "out")
    v.total v.unique v.temporal_reuse v.spatial_reuse (reuse_factor v)

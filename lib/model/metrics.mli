(** Result records of the performance model (paper Section V). *)

type volumes = {
  total : int;  (** TotalVolume: all (stamp, element) accesses *)
  temporal_reuse : int;  (** reused from the same PE's earlier stamps *)
  spatial_reuse : int;
      (** reused over the interconnect (and not already temporally) *)
  unique : int;  (** TotalVolume - ReuseVolume: scratchpad traffic *)
}

val reuse : volumes -> int
(** ReuseVolume = temporal + spatial (Table II). *)

val reuse_factor : volumes -> float
(** ReuseFactor = TotalVolume / UniqueVolume. *)

type tensor_metrics = {
  tensor : string;
  direction : Tenet_ir.Tensor_op.direction;
  volumes : volumes;
  footprint : int;  (** distinct elements touched *)
}

type t = {
  dataflow : string;
  per_tensor : tensor_metrics list;
  n_instances : int;  (** card D_S: number of MACs *)
  n_timestamps : int;  (** distinct time-stamps = compute cycles *)
  pe_size : int;
  avg_utilization : float;
  max_utilization : float;
  delay_compute : int;  (** Eq. 8 *)
  delay_read : float;  (** Eq. 7 *)
  delay_write : float;
  latency : float;  (** max(compute, read + write), Section V-B *)
  latency_stamped : float;
      (** sum over stamps of max(1, ceil(traffic_t / bandwidth)); refines
          the overlap formula for bursty traffic (concrete engine only;
          equals [latency] elsewhere) *)
  ibw : float;  (** Eq. 9: interconnect bandwidth requirement *)
  sbw : float;  (** Eq. 10: scratchpad bandwidth requirement *)
  energy : float;  (** in Energy model units (one MAC = 1) *)
}

val find_tensor : t -> string -> tensor_metrics
(** Raises [Not_found]. *)

val unique_inputs : t -> int
val unique_outputs : t -> int

val assemble :
  spec:Tenet_arch.Spec.t ->
  dataflow:string ->
  per_tensor:tensor_metrics list ->
  n_instances:int ->
  n_timestamps:int ->
  busiest:int ->
  ?stamped_cycles:int ->
  unit ->
  t
(** The record priced from its counts: utilizations, Eqs. 7-10, the
    double-buffered latency of Section V-B and energy, with [pe_size],
    bandwidth and energy coefficients taken from [spec].  [busiest] is
    the instance count of the fullest time-stamp; [n_timestamps] is
    clamped to at least 1.  [latency_stamped] is [stamped_cycles] when
    given, else the overlap latency.  Every model engine builds its
    record here. *)

val pp_tensor_row : Format.formatter -> tensor_metrics -> unit
val to_string : t -> string

val volumes_to_json : volumes -> Tenet_obs.Json.t

val to_json : t -> Tenet_obs.Json.t
(** Machine-readable form with stable keys (CLI [--json], stats files). *)


(** Spacetime-stamp map relations [M_{D,D'}] (Definition 4): adjacency of
    spacetime-stamps, combining a PE-to-PE relation with a time-step
    relation.  Data reuse is counted along these channels
    (Section V-A). *)

module Isl = Tenet_isl
module Arch = Tenet_arch

type adjacency = [ `Inner_step | `Lex_step ]
(** How multi-dimensional time advances:
    [`Inner_step] — outer time dims equal, innermost advances by the
    interval (never crosses a tile boundary);
    [`Lex_step] — the lexicographic successor with wrap-aware
    inner-dimension resets, so reuse chains survive loop boundaries. *)

type channel = {
  cname : string;
  kind : [ `Temporal | `Spatial ];
  m : Isl.Map.t;  (** ST -> ST' *)
}

val temporal :
  ?adjacency:adjacency ->
  Tenet_ir.Tensor_op.t ->
  Dataflow.t ->
  Arch.Pe_array.t ->
  channel
(** Same PE, next time-stamp: register reuse. *)

val channels :
  ?adjacency:adjacency ->
  Arch.Spec.t ->
  Tenet_ir.Tensor_op.t ->
  Dataflow.t ->
  channel list
(** The temporal channel plus the spec's spatial channel. *)

val reuse_pe_relation :
  Arch.Pe_array.t -> Arch.Interconnect.t -> Isl.Map.t
(** The PE relation actually used for spatial reuse: lex-filtered for
    interval-0 topologies, raw otherwise. *)

val spatial_of_rel :
  ?adjacency:adjacency ->
  Tenet_ir.Tensor_op.t ->
  Dataflow.t ->
  rel:Isl.Map.t ->
  dt:int ->
  channel
(** A spatial channel over an explicit PE relation at time step [dt],
    mirroring {!spatial}'s construction; used by the analysis checker to
    test which reuse a suspect subset of PE pairs would carry. *)

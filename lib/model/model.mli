(** The TENET performance model (paper Section V), relational engine:
    a verbatim transcription of the paper's counting formulas over
    {!Tenet_isl}.  Use {!Concrete} for the fast engine with identical
    semantics, and {!Scaled} for layers too large to enumerate. *)

module Ir = Tenet_ir
module Arch = Tenet_arch
module Df = Tenet_dataflow

exception Invalid_dataflow of string

val stamp_histogram :
  Tenet_isl.Map.t ->
  n_space:int ->
  time_bounds:(int * int) list ->
  (int, int ref) Hashtbl.t
(** Instances per time-stamp (active PEs under an injective dataflow),
    keyed by the stamp's mixed-radix encoding against [time_bounds]. *)

val analyze :
  ?adjacency:[ `Inner_step | `Lex_step ] ->
  ?validate:bool ->
  Arch.Spec.t ->
  Ir.Tensor_op.t ->
  Df.Dataflow.t ->
  Metrics.t
(** Full metrics by relation counting.  Raises {!Invalid_dataflow} when
    validation fails. *)

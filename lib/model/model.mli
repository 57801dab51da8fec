(** The TENET performance model (paper Section V), relational engine:
    a verbatim transcription of the paper's counting formulas over
    {!Tenet_isl}.  Use {!Concrete} for the fast engine with identical
    semantics, and {!Scaled} for layers too large to enumerate. *)

module Ir = Tenet_ir
module Arch = Tenet_arch
module Df = Tenet_dataflow

val analyze :
  ?adjacency:[ `Inner_step | `Lex_step ] ->
  Arch.Spec.t ->
  Ir.Tensor_op.t ->
  Df.Dataflow.t ->
  Metrics.t
(** Full metrics by relation counting.  Raises
    {!Concrete.Invalid_dataflow} when [Concrete.validate], the validity
    gate every engine shares, refuses the dataflow. *)

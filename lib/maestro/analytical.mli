(** A MAESTRO-style analytical model: closed-form polynomials over
    mapping parameters, deliberately reproducing the approximations the
    paper criticizes — compound subscripts reduced to their base dim
    (Figure 1's 8-vs-6 reuse), innermost-temporal-only reuse, no output
    reuse ever, and a utilization polynomial blind to skew and pipeline
    effects.  Evaluation cost is microseconds (the Figure 8 trade-off). *)

type tensor_report = {
  tensor : string;
  direction : Tenet_ir.Tensor_op.direction;
  reuse_factor : float;
  traffic : float;
}

type report = {
  mapping : string;
  latency : float;
  compute_cycles : float;
  io_cycles : float;
  utilization : float;
  per_tensor : tensor_report list;
}

val ways : size:int -> offset:int -> int -> int
(** Number of chunks a directive walks over a dimension. *)

val analyze : Tenet_arch.Spec.t -> Tenet_ir.Tensor_op.t -> Notation.t -> report
val find_tensor : report -> string -> tensor_report

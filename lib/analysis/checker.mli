(** The relation-centric model checker (paper Sections III-V).

    For a (op, dataflow, architecture) triple, {!check} proves or
    refutes — with a concrete witness point whenever a property fails on
    one — the battery of properties TENET's metrics implicitly assume:
    Θ injectivity, space-stamp containment,
    schedule causality over RAW dependences, interconnect
    well-formedness, reuse feasibility, resource feasibility against
    declared capacities ({!Capacity}), plus empty-domain and
    arity/rank lints.  See {!Diagnostic.registry} for the code table
    and [docs/analysis.md] for the prose. *)

module D = Diagnostic

val check :
  ?adjacency:Tenet_dataflow.Spacetime.adjacency ->
  Tenet_arch.Spec.t ->
  Tenet_ir.Tensor_op.t ->
  Tenet_dataflow.Dataflow.t ->
  D.t list
(** Run the full battery.  Returns all findings sorted by
    (code, witness, message) — byte-stable at any [--jobs]; empty list
    means the triple checks clean.  Capacity diagnostics (TN014-TN018)
    run only when the spec declares capacities and the structural
    checks pass; the TN019 lint is a CLI concern ({!Capacity.lint}) and
    is never emitted here. *)

val prechecker :
  Tenet_arch.Spec.t -> Tenet_ir.Tensor_op.t -> Tenet_dataflow.Dataflow.t -> bool
(** The cheap subset of {!check} (no counting, no witness search),
    staged for DSE inner loops: the closure answers whether a candidate
    escapes the TN009 (unknown iterator), TN001 (rank) and TN002
    (interval bounds) errors {!check} would report, without formatting
    or allocating diagnostics per candidate.  The mapper's hard tier and
    [dse --strict]'s pre-filter. *)

val check_arch : Tenet_arch.Spec.t -> D.t list
(** Structural well-formedness of the architecture alone (TN005):
    interconnect rank, endpoint containment, self-loop wires.  Computed
    once per (topology, PE dims) and remembered, as {!check} does. *)

(** {1 The Zoo x Repository sweep} *)

type subject = {
  s_arch : string;
  s_kernel : string;
  s_spec : Tenet_arch.Spec.t;
  s_op : Tenet_ir.Tensor_op.t;
  s_df : Tenet_dataflow.Dataflow.t;
}

val zoo_subjects : unit -> subject list
(** Every Table III dataflow paired with every repository architecture
    of matching rank, at the paper's experiment sizes. *)

val check_subjects :
  ?adjacency:Tenet_dataflow.Spacetime.adjacency ->
  subject list ->
  (subject * D.t list) list

(** Resource-feasibility diagnostics: buffer capacity (TN014), link
    contention (TN015), PE ports (TN016), multicast fan-out (TN017),
    off-chip bandwidth (TN018), and the no-capacities lint (TN019).

    Verdicts are computed symbolically where the count-free
    {!demand_bound} fits or the parametric counting engine certifies a
    bound for every stamp at once ([analysis.capacity_exact]), and
    otherwise read off the peak probes of a window-1
    {!Tenet_sim.Simulator.run} ([analysis.capacity_fallback]), whose
    witnesses the diagnostics carry. *)

module Ir = Tenet_ir
module Arch = Tenet_arch
module Df = Tenet_dataflow

val word_bytes : int
(** Bytes per tensor element when converting [scratchpad_bytes] to a
    word capacity (4). *)

val demand_bound : Ir.Tensor_op.t -> Tenet_isl.Aff.t list -> int
(** [demand_bound op coords] bounds, with no count, the distinct tensor
    elements that the instances sharing one value of the stamp
    coordinates [coords] touch: [df.time] gives the chip's demand per
    stamp, [df.space @ df.time] one PE's.  Within a stamp each iterator
    takes at most {!Df.Dataflow.stamp_spread} values, an access touches
    at most the product over its iterators, and a tensor at most the
    sum over its distinct subscript lists and at most its
    [Tensor_op.footprint]; the bound is the sum over tensors, saturating
    at [max_int].  It is never below the true demand at any stamp, at
    most Σ footprints, and at most the op's access count where the
    coordinates pin every iterator.  Staged: the footprints are counted
    when it is applied to [op]. *)

val check : Arch.Spec.t -> Ir.Tensor_op.t -> Df.Dataflow.t -> Diagnostic.t list
(** TN014-TN018 for every capacity the spec declares; [[]] when
    {!Arch.Spec.has_capacities} is false.  Assumes the dataflow already
    passed the structural checks (rank, containment, injectivity).
    TN014 tries {!demand_bound} before counting; a capacity settled by
    either bumps [analysis.capacity_exact], and the simulator runs only
    when a capacity is left unsettled or a link, fan-out or DRAM
    capacity is declared. *)

val lint : Arch.Spec.t -> Diagnostic.t list
(** TN019 (info) when the spec declares no capacities at all. *)

val feasible :
  Arch.Spec.t -> Ir.Tensor_op.t -> (Df.Dataflow.t -> bool) option
(** A cheap, symbolic-only pruning predicate for the DSE: [false] only
    on a proof of infeasibility (constant port demand, or a sampled
    stamp of a certified parametric count exceeding a capacity), so
    pruning never drops a feasible candidate.  [None] when the spec
    declares no capacities.

    A capacity is counted only when {!demand_bound} does not already
    fit it: over the time coordinates for the scratchpad, over the
    space and time coordinates for [pe_regs].  The bound is staged
    when the predicate is built (eagerly: the predicate may be called
    from several domains).  Counting stops at the first tensor whose
    count resists, which keeps the candidate.  The verdict is the same
    as counting every tensor would give.  Each call bumps exactly one
    of [analysis.feasible_bounded] (no count ran, the port verdict
    included), [analysis.feasible_counted] (certified counts decided)
    or [analysis.feasible_resisted] (a count resisted, so the
    candidate is kept). *)

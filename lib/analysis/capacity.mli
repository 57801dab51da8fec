(** Resource-feasibility diagnostics: buffer capacity (TN014), link
    contention (TN015), PE ports (TN016), multicast fan-out (TN017),
    off-chip bandwidth (TN018), and the no-capacities lint (TN019).

    Verdicts are computed symbolically where a count-free bound fits or
    the parametric counting engine certifies a bound for every stamp at
    once ([analysis.capacity_exact]), and by a per-timestamp enumeration
    that mirrors the simulator's machine state otherwise
    ([analysis.capacity_fallback]). *)

module Ir = Tenet_ir
module Arch = Tenet_arch
module Df = Tenet_dataflow

val word_bytes : int
(** Bytes per tensor element when converting [scratchpad_bytes] to a
    word capacity (4). *)

type peaks = {
  pe_live : int;  (** max distinct elements resident in one PE, one stamp *)
  pe_live_at : int array;  (** (p.., t..) stamp achieving it *)
  chip_live : int;  (** max distinct (tensor, element) live in one stamp *)
  chip_live_at : int array;  (** (t..) *)
  link_load : int;  (** max transfers over one edge in one stamp *)
  link_load_at : int array;  (** (t.., src p.., dst p..) *)
  fanout : int;  (** max destinations of one element from one PE, one stamp *)
  fanout_at : int array;  (** (t.., src p..) *)
  inflow : int;  (** max elements entering the live set in one stamp *)
  inflow_at : int array;  (** (t..) *)
}

val enumerate_peaks :
  Arch.Spec.t -> Ir.Tensor_op.t -> Df.Dataflow.t -> peaks
(** Exact per-timestamp peaks with argmax witnesses, by replaying the
    simulator's window-1 register and interconnect semantics.  The
    [TENET_CHECK_VERIFY=1] sanitizer cross-checks these against
    [Tenet_sim.Simulator]'s own probes. *)

val check : Arch.Spec.t -> Ir.Tensor_op.t -> Df.Dataflow.t -> Diagnostic.t list
(** TN014-TN018 for every capacity the spec declares; [[]] when
    {!Arch.Spec.has_capacities} is false.  Assumes the dataflow already
    passed the structural checks (rank, containment, injectivity).
    TN014 tries the count-free bounds of {!feasible} before counting;
    a capacity settled by either bumps [analysis.capacity_exact], and
    the enumeration runs only when a capacity is left unsettled or a
    link, fan-out or DRAM capacity is declared. *)

val lint : Arch.Spec.t -> Diagnostic.t list
(** TN019 (info) when the spec declares no capacities at all. *)

val feasible :
  Arch.Spec.t -> Ir.Tensor_op.t -> (Df.Dataflow.t -> bool) option
(** A cheap, symbolic-only pruning predicate for the DSE: [false] only
    on a proof of infeasibility (constant port demand, or a sampled
    stamp of a certified parametric count exceeding a capacity), so
    pruning never drops a feasible candidate.  [None] when the spec
    declares no capacities.

    A capacity is counted only when a count-free bound does not
    already fit it.  Chip demand per stamp is at most Σ
    [Tensor_op.footprint], computed once when the predicate is built
    (eagerly: the predicate may be called from several domains).
    Per-PE demand is at most the same sum and, when
    {!Df.Dataflow.injective_by_construction} holds, at most the op's
    access count.  Counting stops at the first tensor whose count
    resists, which keeps the candidate.  The verdict is the same as
    counting every tensor would give.  Each call bumps exactly one of
    [analysis.feasible_bounded] (no count ran, the port verdict
    included), [analysis.feasible_counted] (certified counts decided)
    or [analysis.feasible_resisted] (a count resisted, so the
    candidate is kept). *)

(** Design-space exploration (paper Sections IV-A and VI-B). *)

module Ir = Tenet_ir
module Arch = Tenet_arch
module Df = Tenet_dataflow
module M = Tenet_model

val tenet_design_space_size : n_loops:int -> int
(** [2^(n^2)]: one 0/1 transformation matrix per dataflow. *)

val maestro_design_space_size : n_loops:int -> int
(** [n! * C(n, 2)]: primitive orders with exactly two SpatialMaps. *)

val data_centric_expressible : Df.Dataflow.t -> bool
(** No affine combinations: every time coordinate maps a single loop dim
    and every space coordinate at most two (the Cluster idiom).  This
    classifies Table III exactly. *)

val candidates_2d :
  ?permute_outer:bool -> Ir.Tensor_op.t -> p:int -> Df.Dataflow.t list
(** 2D dataflows: every ordered dim pair tiled by [p] on the array, each
    remaining dim as the innermost time dim, with and without skewing;
    [permute_outer] additionally enumerates outer loop orders. *)

val candidates_1d : Ir.Tensor_op.t -> p:int -> Df.Dataflow.t list

type objective = Latency | Energy | Sbw

type outcome = {
  dataflow : Df.Dataflow.t;
  metrics : M.Metrics.t;
  expressible : bool;
}

(** {1 Search} *)

type mode =
  | Exhaustive
      (** score every candidate the [prefilter] keeps, with no further
          pruning tier; the oracle *)
  | Pruned
      (** precheck, symmetry-class and dominance pruning; same best
          outcomes as [Exhaustive], computed with far fewer full
          evaluations *)
  | Heuristic
      (** [Pruned] plus a seeded best-bound-first visit order capped at
          [budget] full evaluations *)

type stats = {
  generated : int;  (** candidates handed to [search] *)
  pruned_precheck : int;
      (** rejected by the prefilter or the checker's precheck *)
  pruned_symmetry : int;  (** folded into an equivalent class rep *)
  pruned_capacity : int;
      (** rejected by a resource-infeasibility proof
          ({!Tenet_analysis.Capacity.feasible}): the declared capacities
          cannot hold the candidate's working set.  Only proven-infeasible
          candidates are dropped, so the surviving ranking is identical
          to the unpruned oracle's on every feasible candidate.  Always
          [0] when the spec declares no capacities or in [Exhaustive]
          mode. *)
  pruned_dominated : int;
      (** latency lower bound exceeded the incumbent *)
  evaluated : int;  (** full concrete-engine evaluations *)
  template_reuse : int;
      (** candidate-size scores answered by instantiating a parametric
          metric template instead of a full evaluation
          ({!search_sizes}; always [0] for a single-size {!search}) *)
}

type result = { outcomes : outcome list; stats : stats }

val search :
  ?adjacency:[ `Inner_step | `Lex_step ] ->
  ?mode:mode ->
  ?budget:int ->
  ?seed:int ->
  ?prefilter:(Df.Dataflow.t -> bool) ->
  ?objective:objective ->
  Arch.Spec.t ->
  Ir.Tensor_op.t ->
  Df.Dataflow.t list ->
  result
(** Mapper entry point.  Outcomes are sorted by (score, generation
    order) and include the pruned symmetry twins, materialized from
    their class representative's metrics, so [Pruned] (the default)
    returns the same best — byte-identical metrics — as [Exhaustive].
    Deterministic at any [--jobs] and, given [seed], in [Heuristic]
    mode too.  [budget] (default [generated / 4]) caps full evaluations
    in [Heuristic] mode only.  Symmetry grouping applies only under
    [`Inner_step] adjacency, where its metric-equality argument holds;
    dominance bounds apply only to the [Latency] objective.
    Per-tier prune counts are reported in [stats] and on the
    [dse.pruned_precheck] / [dse.pruned_symmetry] /
    [dse.pruned_capacity] / [dse.pruned_dominated] counters. *)

val search_sizes :
  ?adjacency:[ `Inner_step | `Lex_step ] ->
  ?mode:mode ->
  ?budget:int ->
  ?seed:int ->
  ?prefilter:(Df.Dataflow.t -> bool) ->
  ?objective:objective ->
  ?top:int ->
  Arch.Spec.t ->
  Ir.Tensor_op.t ->
  Df.Dataflow.t list ->
  sizes:(string * int) list list ->
  ((string * int) list * result) list
(** A sweep amortized across problem sizes (each an iterator-extent
    assignment applied to [op]).  The first size runs a full {!search};
    its [top] (default 8) outcomes are then re-scored at every other
    size through one parametric metric template per candidate
    ({!Tenet_model.Template}) — compiled once, instantiated per size in
    O(1), with a full concrete evaluation as fallback wherever a
    template refuses.  Per-size [stats.template_reuse] (and the
    [dse.template_reuse] counter) report how many candidate-size scores
    the templates answered. *)

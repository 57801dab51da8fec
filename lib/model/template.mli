(** Parametric metric templates.

    A template compiles an (arch spec, tensor op, dataflow) triple once,
    keeping chosen iterator extents as free {e parameters}; any concrete
    problem size is then answered by quasi-polynomial substitution — no
    point enumeration, no re-planning, O(1) in the size.

    Within one residue class of the extents modulo the dataflow's tiling
    periods, every integer metric (instance/timestamp counts, per-tensor
    volumes, footprints, stamped cycles) is polynomial of low per-dim
    degree in the extents.  The template fits that polynomial per class
    by exact-rational Lagrange interpolation through a few small concrete
    analyses, verifies it on a held-out larger sample, and caches it.
    Derived float metrics are priced by {!Metrics.assemble}, as a
    concrete analysis prices its own, so instantiated metrics are
    byte-identical to a fresh concrete analysis at the same sizes.

    Sizes the template cannot cover (unfit class, extent below the
    sample floor, non-integral evaluation) fall back to the concrete
    engine; [template.class_fits], [template.class_unfit],
    [template.instantiations] and [template.fallbacks] counters record
    the split. *)

type t
(** A compiled template.  Fitting is lazy per residue class and the
    class cache is mutex-guarded: a template may be shared across
    domains/threads. *)

val compile :
  ?adjacency:Tenet_dataflow.Spacetime.adjacency ->
  ?window:int ->
  Tenet_arch.Spec.t ->
  Tenet_ir.Tensor_op.t ->
  Tenet_dataflow.Dataflow.t ->
  params:string list ->
  t
(** [compile spec op df ~params] builds a template with the named
    iterators of [op] as free size parameters.  Cheap: no concrete
    analysis runs until the first instantiation (only the parametric
    domain count is derived symbolically).  Raises [Invalid_argument]
    if a param is not an iterator of [op] or appears twice.  The
    optional arguments match {!Concrete.analyze}. *)

val try_instantiate : t -> sizes:(string * int) list -> Metrics.t option
(** [try_instantiate t ~sizes] answers the metrics at the given extents
    (params absent from [sizes] keep the op's own extent) purely by
    substitution, or [None] when this size resists the template (the
    caller should fall back to a concrete analysis).  Raises
    [Invalid_argument] for names that are not parameters or extents
    [< 1], and {!Concrete.Invalid_dataflow} when the validity gate
    ([Concrete.validate]) refuses the dataflow at these extents: a fit
    certified at valid sample extents says nothing of an instance count
    past the int range, a space stamp leaving the array or a shared
    stamp at the requested ones. *)

val instantiate : t -> sizes:(string * int) list -> Metrics.t
(** [try_instantiate] with the concrete-engine fallback applied: always
    returns metrics (possibly by running {!Concrete.analyze} on the
    resized op). *)

val closed_forms : t -> sizes:(string * int) list -> (string * string) list
(** [closed_forms t ~sizes] renders the fitted quasi-polynomials for the
    residue class containing [sizes] as [(metric, polynomial)] pairs in
    the parameter names — e.g. [("n_instances", "N*M*K")] — plus a
    ["domain_points"] entry from the symbolic counting engine when it
    produced one.  Empty when that class is not covered. *)

val domain_closed_form : t -> string option
(** The parametric iteration-domain count from
    {!Tenet_isl.Count.count_bset_param}, rendered in the parameter
    names, when the symbolic engine covered it. *)

(** {2 Shared helpers} *)

val shrink_op :
  Tenet_ir.Tensor_op.t -> (string * int) list -> Tenet_ir.Tensor_op.t
(** [shrink_op op [(dim, extent); ...]] re-bounds each named iterator to
    [extent] points, keeping its origin.  Extents may exceed the
    original bounds. *)

val period_of : Tenet_dataflow.Dataflow.t -> string -> int option
(** The tiling period the dataflow applies to a dim (the modulus or
    divisor of the innermost [mod]/[fdiv] on it), when any. *)

val vector_of : Metrics.t -> int array
(** The integer counts behind a record, in the order the fit uses:
    instances, time-stamps, busiest-stamp instances, stamped cycles,
    then total volume, temporal reuse, spatial reuse and footprint per
    tensor. *)

val per_tensor_of_vector :
  Metrics.t -> int array -> Metrics.tensor_metrics list
(** [per_tensor_of_vector skeleton vec] is [skeleton]'s per-tensor rows
    with the volumes and footprints of [vec] (laid out as by
    {!vector_of}). *)

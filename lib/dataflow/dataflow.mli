(** The dataflow relation Θ (Definition 1 of the paper): a quasi-affine
    assignment of each loop instance to a spacetime-stamp
    [(PE[p] | T[t])]. *)

module Isl = Tenet_isl
module Ir = Tenet_ir
module Arch = Tenet_arch

type t = {
  name : string;
  space : Isl.Aff.t list;  (** PE coordinates *)
  time : Isl.Aff.t list;  (** execution order, compared lexicographically *)
}

val make : name:string -> space:Isl.Aff.t list -> time:Isl.Aff.t list -> t

val n_space : t -> int
val n_time : t -> int

val st_space : t -> Isl.Space.t
(** The flattened spacetime space [ST[p0.., t0..]]. *)

val theta : Ir.Tensor_op.t -> t -> Isl.Map.t
(** [Θ = { S[n] -> ST[p, t] }] restricted to the iteration domain.
    Raises [Invalid_argument] if a stamp references an unknown
    iterator. *)

val data_assignment : Ir.Tensor_op.t -> t -> string -> Isl.Map.t
(** [A_{D,F} = Θ⁻¹ . A_{S,F}] (Definition 2). *)

val time_bounds : Ir.Tensor_op.t -> t -> (int * int) list
(** Inclusive per-dimension intervals of the time stamps over the
    iteration box (interval analysis; exact for box domains). *)

val space_bounds : Ir.Tensor_op.t -> t -> (int * int) list

(** {2 Validity primitives}

    Fine-grained, witness-producing facts about a dataflow on an
    architecture.  They are the shared foundation of
    {!first_violation} and of the structured checker in [lib/analysis]
    ([Analysis.Checker]), so the two can never disagree. *)

val rank_violation : t -> Arch.Pe_array.t -> (int * int) option
(** [(space-stamp rank, PE-array rank)] when they differ. *)

val bounds_violation :
  Ir.Tensor_op.t -> t -> Arch.Pe_array.t -> (int * (int * int) * int) option
(** First space dimension whose interval escapes the array:
    [(dim, (lo, hi), array extent)].  Interval analysis, exact for box
    domains. *)

val bounds_witness :
  Ir.Tensor_op.t -> t -> Arch.Pe_array.t -> (int * int array * int array) option
(** A concrete escaping instance: [(space dim, iteration point, space
    stamp)], found by sampling the violating set. *)

val conflict_counts : Ir.Tensor_op.t -> t -> (int * int) option
(** [(instances, stamps)] when Θ is not injective on its domain (two
    instances share a spacetime-stamp). *)

val injective_by_construction : Ir.Tensor_op.t -> t -> bool
(** A syntactic certificate that Θ is injective, with no counting: the
    space and time coordinates together pin every iterator (see
    {!stamp_spread}).  Sound — [true] implies {!conflict_counts} is
    [None] — but incomplete: [false] proves nothing (the Eyeriss and
    MAERI stamps, which add a scaled [mod] term to other iterators in
    one coordinate, are injective but not certified). *)

val stamp_spread : Ir.Tensor_op.t -> Isl.Aff.t list -> string -> int
(** [stamp_spread op coords x] bounds how many values iterator [x]
    takes among the instances that share one value of the stamp
    coordinates [coords], read off the expressions with no counting.
    It is 1 when the coordinates pin [x], by these rules repeated until
    nothing changes: an iterator is pinned when it is a plain
    coordinate, when both [x mod p] and [x fdiv p] of one [p] are known
    terms, or when it is the only term of a coordinate's [Add] chain
    that the pinned iterators do not already give (a term so isolated
    is itself known; a nonzero constant factor on a term is dropped).
    It is at most [p] when [x fdiv p] is a known term, and otherwise
    [x]'s extent, at most [max_int].  Staged: apply it to [op] and
    [coords] once, then to each iterator. *)

val space_violation : Ir.Tensor_op.t -> t -> Arch.Pe_array.t -> string option
(** The rank and containment cases of {!first_violation}, with the same
    texts: interval analysis only, no counting.  For the walkers
    ([Concrete.analyze_in] and the simulator), which read injectivity
    off their own pass 1. *)

val conflict_violation : t -> string
(** The text of the injectivity case of {!first_violation}, for the
    walkers that find a shared spacetime-stamp on their own pass 1. *)

val first_violation : Ir.Tensor_op.t -> t -> Arch.Pe_array.t -> string option
(** The one validity decision: the first failing fact (rank, then
    containment, then injectivity), rendered as a message — [None] when
    the dataflow is valid on the array.  Injectivity is settled by
    {!injective_by_construction} when it holds and by
    {!conflict_counts} otherwise.  [Concrete.validate] raises it, with
    the instance count's range check in front; [Analysis.Checker.check]
    reports the same facts as structured findings with witnesses. *)

val to_string : t -> string

(** Integer sets: finite unions of basic sets (conjunctions of quasi-affine
    constraints) over one named space.

    This is the OCaml counterpart of isl's [isl_union_set] restricted to
    what TENET needs: bounded, parameter-free sets.  Cardinality ([card])
    is exact (see {!Count}). *)

type t

val dim : t -> int

val of_bsets : Space.t -> Bset.t list -> t
val disjuncts : t -> Bset.t list


val box : Space.t -> (int * int) list -> t
(** [box space bounds] with inclusive per-dimension [(lo, hi)] bounds. *)

val union : t -> t -> t
val intersect : t -> t -> t

val subtract : t -> t -> t
(** [subtract a b] is [a] minus [b].  The subtrahend must not contain free
    existentials (its floor-division dims are fine); raises
    [Invalid_argument] otherwise. *)

val card : t -> int
(** Exact number of integer points.  Raises {!Count.Unbounded} if some
    dimension is unbounded. *)

val is_empty : t -> bool
val mem : t -> int array -> bool
val sample : t -> int array option

val iter_points : (int array -> unit) -> t -> unit
(** Visit every point exactly once.  The callback's array is reused only
    across distinct calls, never mutated after being passed. *)

val project : keep:bool list -> t -> t
(** Existentially project away the dims where [keep] is [false]. *)

val fix : dim:int -> int -> t -> t

val constrain : ?eqs:Aff.t list -> ?ges:Aff.t list -> t -> t
(** Intersect with quasi-affine constraints over the space's dimension
    names ([eqs] must equal 0, [ges] must be non-negative). *)

val dim_bounds : dim:int -> t -> (int * int) option
(** Min and max value of a dimension over the set; [None] if empty. *)

val rename_dims : string list -> t -> t
val to_string : t -> string

val mem_fn : t -> int array -> bool
(** Precompiled membership tester; prefer over repeated {!mem} calls. *)

val is_subset : t -> t -> bool
(** [is_subset a b] iff every point of [a] is in [b].  The superset must
    satisfy {!subtract}'s restriction (no free existentials). *)

val equal_sets : t -> t -> bool

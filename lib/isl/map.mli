(** Integer relations (maps) between two named spaces: finite unions of
    basic relations, mirroring isl's [isl_union_map].

    All four TENET relations — dataflow [Θ], data assignment [A_{D,F}],
    interconnection [I], and spacetime-map [M] — are values of this type.
    The metric formulas of the paper are direct combinations of
    {!reverse}, {!apply_range}, {!intersect} and {!card}. *)

type t

val dom : t -> Space.t
val ran : t -> Space.t
val n_in : t -> int
val n_out : t -> int

val of_bsets : Space.t -> Space.t -> Bset.t list -> t
val disjuncts : t -> Bset.t list
val universe : Space.t -> Space.t -> t

val of_exprs : Space.t -> Space.t -> Aff.t list -> t
(** [of_exprs dom ran exprs] is the graph [{ dom -> ran : ran_i =
    exprs_i(dom) }] (no domain constraints; intersect with a domain set as
    needed). *)

val union : t -> t -> t
val union_all : t list -> t
val intersect : t -> t -> t

val subtract : t -> t -> t
(** Set difference of the underlying pair sets; the subtrahend must not
    contain free existentials. *)

val reverse : t -> t
(** The inverse relation ([isl_union_map_reverse]). *)

val apply_range : t -> t -> t
(** [apply_range a b] composes [a : X -> Y] with [b : Y -> Z] into
    [X -> Z] ([isl_union_map_apply_range]).  The shared [Y] dimensions
    become existentials. *)

val intersect_domain : t -> Set.t -> t
val intersect_range : t -> Set.t -> t

val domain : t -> Set.t
val range : t -> Set.t

val wrap : t -> Set.t
(** View the relation as a set of flattened (in, out) pairs. *)

val card : t -> int
(** Exact number of pairs. *)

val is_empty : t -> bool
val mem : t -> src:int array -> dst:int array -> bool

val iter_pairs : (int array -> int array -> unit) -> t -> unit
(** Visit every (in, out) pair exactly once. *)

val image : t -> int array -> int array list
(** All images of one domain point. *)

val eval : t -> int array -> int array option
(** The unique image of a point, [None] if outside the domain; raises
    [Invalid_argument] if the relation is not single-valued there. *)

val is_single_valued : t -> bool
val is_injective : t -> bool

val fix_input : dim:int -> int -> t -> t

val constrain : ?eqs:Aff.t list -> ?ges:Aff.t list -> t -> t
(** Intersect with quasi-affine constraints over the concatenated
    (domain, range) dimension names; domain names win on collision. *)


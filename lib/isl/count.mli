(** Exact integer-point counting over basic sets — the replacement for the
    Barvinok library used by the original TENET.

    [count] is the number of distinct assignments to the {e visible}
    dimensions for which the existential dimensions can be completed.  The
    engine normalizes and Gaussian-substitutes equalities, orders variables
    so each is bounded by its predecessors, and enumerates with per-level
    bound propagation; dimensions unreferenced by later constraints
    contribute closed-form width factors (so boxes cost O(dims)).  See the
    implementation header for the full algorithm.  The oracle suite
    ([test/test_oracle.ml]) checks every count, parametric count
    included, against the points iteration visits. *)

exception Unbounded of string
(** Raised when a visible dimension has no finite bounds. *)

val count_bset : Bset.t -> int
val mem_bset : Bset.t -> int array -> bool
val iter_bset : Bset.t -> (int array -> unit) -> unit
val sample_bset : Bset.t -> int array option

val count_union : Bset.t list -> int
(** Cardinality of a union, counting overlaps once. *)

val iter_union : Bset.t list -> (int array -> unit) -> unit
val mem_union : Bset.t list -> int array -> bool
val is_empty_union : Bset.t list -> bool

val make_mem_bset : Bset.t -> int array -> bool
(** Precompiled membership tester; compiles once, then answers queries in
    time proportional to the constraint count. *)

val make_mem_union : Bset.t list -> int array -> bool

(** {2 Parametric counting}

    The parametric planner treats the {e leading} [n_params] visible
    dimensions as free size parameters and returns the cardinality of
    the remaining visible dimensions as a quasi-polynomial in those
    parameters: compile once, then answer any concrete size by
    {!Qpoly.eval} — no re-planning and no enumeration.  [None] means the
    set resisted symbolic treatment (dedup plan, unprovable existential
    suffix, unsupported bound shape); callers fall back to the concrete
    path.  The [count.template_hits] / [count.template_fallbacks]
    counters record the split. *)

val count_bset_param :
  n_params:int -> ?assume:(int * int) array -> Bset.t -> Qpoly.t option
(** [count_bset_param ~n_params ~assume b] is the count of [b]'s visible
    dims past the first [n_params], as a quasi-polynomial in variables
    [0..n_params-1].  [assume] gives each parameter's inclusive range
    (default [(1, 4096)] per parameter): the result is certified exact
    for every parameter assignment inside it. *)

val count_union_param :
  n_params:int -> ?assume:(int * int) array -> Bset.t list -> Qpoly.t option
(** Parametric cardinality of a union via inclusion–exclusion (at most 4
    same-arity disjuncts, like {!count_union}'s fast path); [None] when
    any intersection term resists. *)

val cache_clear : unit -> unit
(** Drop every memoized cardinality/emptiness result.  Counting results
    are deterministic, so this only matters for benchmarks and tests that
    want cold-cache timings or counter values. *)

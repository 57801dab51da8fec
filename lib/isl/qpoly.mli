(** Quasi-polynomials over integer variables, with exact symbolic
    summation (the "Barvinok-lite" engine behind closed-form counting).

    A value of type {!t} denotes an integer-valued function of integer
    variables (identified by nonnegative indices): a sum of
    rational-coefficient monomials whose bases are either plain
    variables or canonical floor atoms [floor((c.x + k)/d)].  The
    fragment covers exactly what TENET's quasi-affine sets produce —
    box bounds, simplex couplings, and the mod/fdiv forms generated by
    dataflow stamps, tiling and skew.

    All operations are exact.  {!sum_var} returns [None] (rather than
    an approximation) outside the supported fragment, and callers fall
    back to enumeration for that level only. *)

(** Exact rationals over machine integers (exposed for tests). *)
module Q : sig
  type t

  val make : int -> int -> t
  (** [make n d] is the reduced rational [n/d] ([d <> 0]). *)

  val of_int : int -> t
end

type lin
(** An integer affine form [sum c_i * x_i + k]. *)

val lin : (int * int) list -> int -> lin
(** [lin terms k] builds an affine form from [(variable, coefficient)]
    pairs (any order, duplicates summed) and constant [k]. *)

val lin_scale : int -> lin -> lin

type t
(** A quasi-polynomial. *)

val zero : t
val one : t
val of_int : int -> t
val var : int -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val scale : Q.t -> t -> t
(** [scale q t] multiplies every coefficient by the rational [q]. *)

val floor_lin : lin -> int -> t
(** [floor_lin l d] is [floor(l / d)] ([d > 0]), canonicalized:
    integer-multiple parts are extracted from the floor and the residual
    atom is gcd-reduced, so syntactically different but equal bounds
    (e.g. [ceil((x-7)/8)] and [floor(x/8)]) become structurally equal
    and cancel under {!sub}. *)

val ceil_lin : lin -> int -> t
(** [ceil_lin l d] is [ceil(l / d)] ([d > 0]), via
    [floor((l + d - 1)/d)]. *)

val subst : int -> by:lin -> t -> t
(** [subst v ~by t] replaces variable [v] by the affine form [by],
    re-canonicalizing any floor atom that mentioned [v]. *)

val is_const : t -> int option
(** [Some n] iff the quasi-polynomial is the integer constant [n]. *)


val sum_var : v:int -> lb:t -> ub:t -> t -> t option
(** [sum_var ~v ~lb ~ub body] is [sum_{v=lb}^{ub} body] as a
    quasi-polynomial in the remaining variables, via Faulhaber
    antidifferences at arbitrary degree (up to an internal cap).
    Returns [None] when [body] mentions [v] inside a floor atom, when a
    bound mentions [v], or when the degree exceeds the cap.  The result
    is a polynomial identity that telescopes exactly for every integer
    assignment with [ub >= lb - 1]; the caller must certify that side
    condition (e.g. with {!prove_ge} on [ub - lb + 1]). *)

val eval : (int -> int) -> t -> int
(** Exact evaluation under an integer environment.
    @raise Invalid_argument if the value is not integral (only possible
    on quasi-polynomials that are not integer-valued). *)

val prove_ge : (int -> int * int) -> t -> int -> bool
(** [prove_ge env t k] is [true] only if [t >= k] for {e every} integer
    assignment inside the per-variable intervals given by [env]
    (constant folding first, conservative interval arithmetic second).
    [false] means "could not prove", not "false". *)

val to_string_with : (int -> string) -> t -> string
(** A rendering with caller-supplied variable names, so parametric
    metric templates can print closed forms over the workload's own
    dimension names. *)

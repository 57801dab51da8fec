(** Quasi-affine expressions over named dimensions.

    These are the building blocks of the relation-centric notation: every
    space-stamp and time-stamp coordinate, tensor subscript, and constraint
    is a quasi-affine expression.  [Fdiv] (floor division) and [Mod] take a
    positive integer literal divisor, exactly the [fl(i/8)] and [i%8] forms
    of the paper. *)

type t =
  | Var of string
  | Int of int
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t  (** at least one side must be constant *)
  | Fdiv of t * int  (** floor division by a positive literal *)
  | Mod of t * int  (** modulus by a positive literal *)
  | Abs of t
      (** only valid inside comparison atoms of the constraint language
          with the absolute value on the small side, e.g.
          [abs(i - j) <= 1]; never reaches {!lower}. *)

exception Nonlinear of string
(** Raised when lowering an expression that is not quasi-affine. *)

(** Convenience constructors; [( / )] is floor division and [( % )] is
    modulus, both by integer literals. *)

val var : string -> t
val int : int -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> int -> t
val ( % ) : t -> int -> t

val free_vars : t -> string list
(** Variable names, with duplicates. *)

val rename : (string -> string) -> t -> t
(** Apply a renaming to every variable. *)

val eval : (string -> int) -> t -> int
(** Evaluate under an environment. *)

val compile_eval : lookup:(string -> int) -> t -> int array -> int
(** [compile_eval ~lookup e] stages [e] into a closure over an array of
    variable values indexed by [lookup] (applied once per variable, at
    compile time).  Semantically [eval (fun s -> v.(lookup s)) e], but
    with no name resolution or AST walk per call — for hot loops that
    evaluate the same expression many times. *)

val to_string : t -> string

(** {2 Lowering to linear constraint form}

    Used by {!Set}, {!Map} and {!Parser} to translate expressions into the
    basic-set representation.  A lowering context accumulates one
    existential dimension per [Fdiv]/[Mod] occurrence. *)

type lin = { terms : (int * int) list; const : int }
(** Sparse linear form: [(var index, coefficient)] terms plus constant. *)

type ctx

val make_ctx : int -> ctx
(** [make_ctx nbase] starts a lowering over [nbase] visible dimensions. *)

val lower : ctx -> lookup:(string -> int) -> t -> lin
(** Lower an expression; [lookup] resolves dimension names to indices in
    [\[0, nbase)].  Raises {!Nonlinear} on non-affine input. *)

val check_affine : dims:string list -> t -> unit
(** Lower an expression over [dims], which must name all its variables,
    and drop the result: raises {!Nonlinear} exactly when {!lower}
    would.  Parsers call it once per expression they read, so every
    engine refuses a non-affine input with the same text. *)

val lin_add : lin -> lin -> lin

val to_bset : ctx -> eqs:lin list -> ges:lin list -> Bset.t
(** Package lowered constraints ([eqs] = 0, [ges] >= 0) together with the
    context's floor-division definitions into a basic set. *)

val interval : (string -> int * int) -> t -> int * int
(** Tight interval of the expression's value given per-variable inclusive
    intervals (exact for affine expressions, standard monotone rules for
    [Fdiv]/[Mod]/[Abs]). *)

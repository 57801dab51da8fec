(** Named tuples of dimensions, e.g. [S[i,j,k]] or [PE[x,y]].

    A space names one side of a relation or the dimensions of a set; it
    carries no constraints. *)

type t = { tuple : string; dims : string list }

val make : string -> string list -> t
(** [make tuple dims] is the space [tuple\[dims\]]. *)

val dim : t -> int
(** Number of dimensions. *)

val index : t -> string -> int
(** Position of a dimension name; raises [Not_found]. *)

val concat : t -> t -> t
(** Concatenate dimension lists (used when wrapping a relation as a set). *)

val equal : t -> t -> bool
(** Same tuple name and arity. *)

val rename_dims : t -> string list -> t
(** Replace all dimension names; arity must match. *)

val to_string : t -> string

(** PE arrays: boxes of processing elements, each performing one
    multiply-accumulate per cycle (paper Section II-A). *)

type t

val make : int array -> t
(** [make dims]; every extent must be positive. *)

val d1 : int -> t
(** A 1D array of [n] PEs. *)

val d2 : int -> int -> t
(** [d2 rows cols]. *)

val rank : t -> int
val size : t -> int
val dims : t -> int array

val dim_names : t -> string list
(** ["p0"; "p1"; ...] — the canonical space-stamp dimension names. *)

val domain : t -> Tenet_isl.Set.t
val in_bounds : t -> int array -> bool
val to_string : t -> string

(** Small helpers on [int array] treated as integer vectors. *)

val dot : int array -> int array -> int
val add : int array -> int array -> int array
val sub : int array -> int array -> int array
val scale : int -> int array -> int array
val neg : int array -> int array

val content : int array -> int
(** Gcd of all entries (non-negative); 0 for the zero vector. *)

val is_zero : int array -> bool

val compare_lex : int array -> int array -> int
(** Lexicographic comparison; arrays must have equal length. *)

val hash : int array -> int
val equal : int array -> int array -> bool
val to_string : int array -> string

(** Tensor-operation IR: a perfectly-nested loop over a box iteration
    domain with one unconditional statement — the class of programs TENET
    models (Section II-B of the paper).

    Each access is an affine map from loop iterators to tensor subscripts
    (the access function [A_{S,F}] of Eq. 1). *)

module Isl = Tenet_isl

type direction = Read | Write

type access = {
  tensor : string;
  subscripts : Isl.Aff.t list;
  direction : direction;
}

type iter = { iname : string; lo : int; hi : int }
(** One loop level with inclusive bounds. *)

type t = { name : string; iters : iter list; accesses : access list }

val make :
  ?name:string ->
  iters:(string * int * int) list ->
  accesses:access list ->
  unit ->
  t
(** [make ~iters ~accesses ()] with [(name, lo, hi)] inclusive loop bounds.
    Raises [Invalid_argument] if a subscript references an unknown
    iterator. *)

val iter_names : t -> string list
val n_iters : t -> int
val extent : iter -> int

val n_instances : t -> int
(** Product of loop extents, i.e. [card D_S]; one MAC per instance.  An
    empty loop (upper bound below the lower) has no instances.  Raises
    [Invalid_argument] past the int range, where the product would wrap;
    the concrete engine and the simulator refuse such ops first, as
    invalid dataflows. *)

val iter_bounds : t -> string -> int * int
(** Inclusive bounds of a named iterator; raises [Not_found]. *)

val space : t -> Isl.Space.t
(** The statement space [S[iters]]. *)

val domain : t -> Isl.Set.t
(** The iteration domain [D_S] as an integer set. *)

val tensors : t -> string list
val inputs : t -> string list
val outputs : t -> string list
val accesses_of : t -> string -> access list
val tensor_arity : t -> string -> int

val access_map : t -> string -> Isl.Map.t
(** The access function [{ S[n] -> F[f] }] of one tensor, as a union over
    all its syntactic accesses, restricted to the iteration domain. *)

val footprint : t -> string -> int
(** Number of distinct elements of the tensor touched by the operation. *)

val to_string : t -> string

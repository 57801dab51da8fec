(** The data-centric notation of MAESTRO (Kwon et al.): ordered mapping
    directives.  Reproduced as the paper's baseline; its expressiveness
    limits (no affine combination of loop dims) are what Table III's "x"
    rows are about. *)

type directive =
  | Spatial_map of { size : int; offset : int; dim : string }
  | Temporal_map of { size : int; offset : int; dim : string }
  | Cluster of int

type t = { name : string; directives : directive list }

val make : name:string -> directive list -> t
val spatial : ?size:int -> ?offset:int -> string -> directive
val temporal : ?size:int -> ?offset:int -> string -> directive
val cluster : int -> directive

val to_string : t -> string

val spatial_dims : t -> string list
val temporal_dims : t -> string list

val innermost_temporal : t -> string option
(** The only temporal dimension MAESTRO's reuse polynomial inspects
    (paper Section VI-E). *)

val mapped_dims : t -> string list

val design_space_size : n_loops:int -> n_spatial:int -> int
(** [n! * C(n, n_spatial)] (paper Section IV-A; 18 for GEMM). *)

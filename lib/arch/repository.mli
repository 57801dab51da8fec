(** A repository of common spatial architectures (paper Section III):
    systolic arrays (TPU), mesh NoCs (DySER/Plasticine), multicast arrays
    (Eyeriss, Diannao) and reduction trees (MAERI). *)

val tpu_like : ?n:int -> ?bandwidth:int -> unit -> Spec.t
val mesh_array : ?rows:int -> ?cols:int -> ?bandwidth:int -> unit -> Spec.t
val eyeriss_like : ?rows:int -> ?cols:int -> ?bandwidth:int -> unit -> Spec.t
val maeri_like : ?n:int -> ?bandwidth:int -> unit -> Spec.t
val systolic_1d : ?n:int -> ?bandwidth:int -> unit -> Spec.t

val all : (string * Spec.t) list
val find : string -> Spec.t
(** Raises [Invalid_argument] for unknown names. *)

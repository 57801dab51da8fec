(** The twenty dataflows of Table III (plus a MAERI-style reduction-tree
    dataflow), parameterized by PE-array width.

    Table III prints only the innermost two time dimensions; the
    iterators it omits are restored here as outer time dimensions so
    every dataflow orders all instances uniquely per PE (see the module
    implementation and DESIGN.md for the reconstruction rules). *)

(** {2 GEMM} (iterators i, j, k; [p] = array width) *)

val gemm_ij_p_ijk_t : ?p:int -> unit -> Dataflow.t
(** [(IJ-P | J,IJK-T)], the TPU mapping: output-stationary systolic with
    skewed feeding. *)

val gemm_kj_p_ijk_t : ?p:int -> unit -> Dataflow.t
val gemm_ik_p_ijk_t : ?p:int -> unit -> Dataflow.t
val gemm_k_p_ij_t : ?p:int -> unit -> Dataflow.t
val gemm_j_p_ik_t : ?p:int -> unit -> Dataflow.t
val gemm_2d : ?p:int -> unit -> Dataflow.t list
val gemm_1d : ?p:int -> unit -> Dataflow.t list
val gemm_all : ?p2:int -> ?p1:int -> unit -> Dataflow.t list

(** {2 2D-CONV} (iterators k, c, ox, oy, rx, ry) *)

val conv_kc_p_oy_kcox_t : ?p:int -> unit -> Dataflow.t
(** Affine-only (not data-centric expressible). *)

val conv_kox_p_oy_koxc_t : ?p:int -> unit -> Dataflow.t
val conv_kc_p_c_kox_t : ?p:int -> unit -> Dataflow.t
val conv_k_p_ox_oy_t : ?p:int -> unit -> Dataflow.t
val conv_c_p_oy_ox_t : ?p:int -> unit -> Dataflow.t

val conv_eyeriss_rs :
  ?rows:int ->
  ?cols:int ->
  ?kt:int ->
  ?ct:int ->
  ?cpack:int ->
  ?r:int ->
  unit ->
  Dataflow.t
(** Eyeriss row-stationary: filter rows fill array columns
    ([ry + r*(c mod cpack)]), output rows fill array rows ([oy mod
    cols]).  [cpack] channel slices share a column; [r] is the filter
    height. *)

val conv_shidiannao : ?p:int -> unit -> Dataflow.t
val conv_nvdla : ?p:int -> unit -> Dataflow.t
val conv_maeri : ?cslices:int -> ?taps:int -> unit -> Dataflow.t
val conv_all : ?p2:int -> ?p1:int -> unit -> Dataflow.t list

(** {2 MTTKRP} (iterators i, j, k, l) *)

val mttkrp_ij_p_ijl_t : ?p:int -> unit -> Dataflow.t
val mttkrp_kj_p_kjl_t : ?p:int -> unit -> Dataflow.t
val mttkrp_kl_p_klj_t : ?p:int -> unit -> Dataflow.t
val mttkrp_all : ?p:int -> unit -> Dataflow.t list

(** {2 Jacobi-2D} (iterators i, j) *)

val jacobi_i_p_ij_t : ?p:int -> unit -> Dataflow.t
val jacobi_ij_p_ij_t : ?p:int -> unit -> Dataflow.t
val jacobi_all : ?p2:int -> ?p1:int -> unit -> Dataflow.t list

(** {2 MMc} (iterators i, j, k, l) *)

val mmc_ij_p_ijl_t : ?p:int -> unit -> Dataflow.t
val mmc_all : ?p:int -> unit -> Dataflow.t list

(** {2 Catalog} *)

val catalog : ?p2:int -> ?p1:int -> unit -> (string * Dataflow.t) list
(** Every zoo dataflow under a kernel-qualified name
    (["gemm/(IJ-P | J,IJK-T)"]), instantiated at 2D width [p2] and 1D
    width [p1]. *)

val find : ?p2:int -> ?p1:int -> string -> Dataflow.t
(** Look a dataflow up by qualified name, or by its bare Table III name
    when unambiguous.  Raises [Invalid_argument] listing the known names
    (with a nearest-match suggestion) otherwise. *)

(** Layer tables for the real-world applications of the paper (Table IV,
    Figures 11-12): AlexNet, VGG16, GoogLeNet, MobileNet, ALS (MTTKRP)
    and Transformer (matrix chains).  Strides are normalized to 1
    (documented substitution in DESIGN.md). *)

type kind = Conv | Dw_conv | Gemm | Mttkrp | Mmc

type layer = {
  lname : string;
  kind : kind;
  op : Tenet_ir.Tensor_op.t;
  scale_dims : string list;
      (** dims safe to extrapolate with {!Tenet_model.Scaled} *)
}

val macs : layer -> int

val alexnet : layer list
val vgg16 : layer list
val googlenet : layer list
val mobilenet : layer list
val als : ?rank:int -> unit -> layer
val transformer : ?seq:int -> unit -> layer list
val all_networks : (string * layer list) list

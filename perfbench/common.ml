(* Input-generation helpers shared by the workloads. *)

module Ir = Tenet.Ir
module Json = Tenet.Obs.Json
module Api = Tenet.Serve.Api

let pick rng l = List.nth l (Random.State.int rng (List.length l))
let range rng lo hi = lo + Random.State.int rng (hi - lo + 1)

(* Fisher-Yates, in place. *)
let shuffle rng (a : 'a array) : unit =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The tensor op the serve API builds for a kernel name and sizes. *)
let kernel_of (kernel : string) (sizes : int list) : Ir.Tensor_op.t =
  Api.op_of { (Api.Request.default Api.Request.Analyze) with kernel; sizes }

let archs_2d = [ "tpu-8x8-systolic"; "mesh-8x8"; "eyeriss-12x14"; "shidiannao-8x8" ]
let archs_1d = [ "maeri-64"; "multicast-64"; "systolic-64x1" ]

(* Every Table III dataflow with every repository arch of its rank, the
   Checker.zoo_subjects pairing, as (kernel, qualified zoo name, arch).
   The Eyeriss row-stationary entry needs its own array shape and is
   left out. *)
let zoo_pairs : (string * string * string) list =
  List.concat_map
    (fun (name, df) ->
      let kernel = List.hd (String.split_on_char '/' name) in
      let archs = if Tenet.Dataflow.Dataflow.n_space df = 2 then archs_2d else archs_1d in
      if String.ends_with ~suffix:"(RYOY-P | OY,OX-T)" name then []
      else List.map (fun arch -> (kernel, name, arch)) archs)
    (Tenet.Dataflow.Zoo.catalog ())

let sizes_text sizes = String.concat "," (List.map string_of_int sizes)

(* A model result in the serve API's encoding, for digests and
   comparisons. *)
let metrics_text (df : Tenet.Dataflow.Dataflow.t) (m : Tenet.Model.Metrics.t) :
    string =
  Json.to_string
    (Api.Response.payload_json
       (Api.Response.Metrics { dataflow = df; metrics = m; forms = [] }))

(* |model latency - simulated cycles| / cycles *)
let rel_err ~(model : float) ~(cycles : int) : float =
  Float.abs (model -. float_of_int cycles) /. float_of_int cycles

let mean (xs : float list) : float =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

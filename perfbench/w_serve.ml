(* serve_mix: a seeded stream of JSON request lines through the calls
   `tenet batch` makes for each line (Protocol.parse_request, Api.run,
   Protocol.response_line), one caller in a closed loop.

   The catalog is a fixed multiset of requests with Zipf-like
   popularity: the item of rank r appears max(1, round(c / r)) times in
   the pass.  Kinds are spread evenly over the ranks, so every seed gets
   the same number of items of each kind at every popularity level; the
   seed decides which item of a kind takes which rank, and the order of
   the pass.  Set-up replays a warm-up prefix, as a long-lived server
   would have: a fixed part of the catalog, the same for every seed,
   that holds the first template fit of each params structure and every
   scale_dims request.  The pass then mixes result-cache hits with
   misses that compute and insert, and its misses are exactly the items
   outside the prefix, so the work is the same for every seed.  The
   other params, volumes and relational requests stay out of the
   prefix: their first requests in the pass are the heaviest ordinary
   misses.  No request sets deadline_ms: its output depends on
   timing. *)

module M = Tenet.Model
module Sim = Tenet.Sim.Simulator
module P = Tenet.Serve.Protocol
module H = Harness
open Common

let name = "serve_mix"
let pass_target = 1200

type kind =
  | Analyze
  | Volumes
  | Check
  | Dse
  | Params of int  (** structure index *)
  | Relational
  | C_source
  | Scale_dims
  | Malformed

let kind_name = function
  | Analyze -> "analyze"
  | Volumes -> "volumes"
  | Check -> "check"
  | Dse -> "dse"
  | Params _ -> "params"
  | Relational -> "relational"
  | C_source -> "c_source"
  | Scale_dims -> "scale_dims"
  | Malformed -> "malformed"

(* Catalog size per kind. *)
let kinds =
  [
    (Analyze, 240);
    (Volumes, 6);
    (Check, 40);
    (Dse, 20);
    (Params 0, 60);
    (Relational, 4);
    (C_source, 15);
    (Scale_dims, 3);
    (Malformed, 10);
  ]

type item = {
  kind : kind;
  sampled : bool;  (** simulated for model_err_pct *)
  line : string -> string;  (** request id -> line *)
}

let pairs = Array.of_list zoo_pairs

(* Four shapes per kernel, smallest first. *)
let shapes = function
  | "gemm" -> [| [ 8; 8; 8 ]; [ 16; 12; 8 ]; [ 12; 16; 16 ]; [ 24; 16; 12 ] |]
  | "conv" ->
      [|
        [ 4; 2; 4; 4; 3; 3 ];
        [ 8; 2; 5; 5; 3; 3 ];
        [ 4; 4; 6; 6; 3; 3 ];
        [ 8; 4; 8; 8; 3; 3 ];
      |]
  | "mttkrp" | "mmc" ->
      [| [ 8; 8; 4; 4 ]; [ 12; 8; 4; 8 ]; [ 8; 12; 8; 4 ]; [ 16; 12; 8; 8 ] |]
  | "jacobi2d" -> [| [ 12 ]; [ 18 ]; [ 24 ]; [ 32 ] |]
  | k -> invalid_arg k

let ints l = Json.List (List.map (fun n -> Json.Int n) l)
let str s = Json.String s
let request fields id = Json.to_string (Json.Obj (("id", str id) :: fields))

let zoo_fields cmd (kernel, df, arch) sizes =
  [
    ("cmd", str cmd);
    ("kernel", str kernel);
    ("sizes", ints sizes);
    ("arch", str arch);
    ("dataflow", str df);
  ]

(* The template tier: a few dataflow structures, each swept over sizes
   with every iterator kept as a parameter. *)
let structures =
  [|
    ("tpu-8x8-systolic", "gemm/(IJ-P | J,IJK-T)");
    ("mesh-8x8", "gemm/(KJ-P | K,IJK-T)");
    ("shidiannao-8x8", "gemm/(IK-P | K,IJK-T)");
  |]

(* Volumes requests count through the relational engine, whose cost
   follows the interconnect's reuse structure rather than the sizes:
   they stay on GEMM and the arrays where one costs at most tens of
   ms. *)
let volumes =
  [|
    ("gemm", "gemm/(IJ-P | J,IJK-T)", "tpu-8x8-systolic", [ 16; 16; 16 ]);
    ("gemm", "gemm/(KJ-P | K,IJK-T)", "tpu-8x8-systolic", [ 8; 8; 8 ]);
    ("gemm", "gemm/(IK-P | K,IJK-T)", "tpu-8x8-systolic", [ 24; 16; 16 ]);
    ("gemm", "gemm/(K-P | I,J-T)", "systolic-64x1", [ 16; 16; 16 ]);
    ("gemm", "gemm/(J-P | I,K-T)", "maeri-64", [ 16; 16; 8 ]);
    ("gemm", "gemm/(K-P | I,J-T)", "multicast-64", [ 8; 16; 16 ]);
  |]

let gemm_c_source (i, j, k) =
  Printf.sprintf
    "for (i = 0; i < %d; i++) for (j = 0; j < %d; j++) for (k = 0; k < %d; k++) \
     C[i][j] += A[i][k] * B[k][j];"
    i j k

let malformed =
  [|
    (* truncated JSON *)
    (fun id ->
      Printf.sprintf {|{"id":"%s","cmd":"analyze","kernel":"gemm","sizes":[8,8|} id);
    (* unknown field *)
    (fun id ->
      Printf.sprintf {|{"id":"%s","cmd":"analyze","kernal":"gemm","sizes":[8,8,8]}|} id);
    (fun id -> Printf.sprintf {|{"id":"%s","cmd":"analyse","kernel":"gemm"}|} id);
    (fun id -> Printf.sprintf {|{"id":"%s","api_version":2,"cmd":"analyze"}|} id);
    (* decodes, but names no known arch *)
    (fun id ->
      Printf.sprintf
        {|{"id":"%s","cmd":"analyze","kernel":"gemm","sizes":[8,8,8],"arch":"tpu-9x9"}|}
        id);
  |]

(* Item [j] of a kind is fixed: the catalog is the same multiset of
   requests for every seed, so the work does not drift with it. *)
let make_item (kind : kind) (j : int) : item =
  let item ?(sampled = false) kind fields = { kind; sampled; line = request fields } in
  let np = Array.length pairs in
  match kind with
  | Analyze ->
      let ((kernel, _, _) as p) = pairs.(j mod np) in
      (* the two smaller shapes of every pair feed model_err_pct *)
      item ~sampled:(j / np <= 1) Analyze
        (zoo_fields "analyze" p (shapes kernel).(j / np))
  | Check ->
      let ((kernel, _, _) as p) = pairs.(j mod np) in
      item Check (zoo_fields "check" p (shapes kernel).(0))
  | Volumes ->
      let kernel, df, arch, sizes = volumes.(j) in
      item Volumes (zoo_fields "volumes" (kernel, df, arch) sizes)
  | Dse ->
      let sizes =
        [| [ 6; 6; 4 ]; [ 8; 8; 4 ]; [ 10; 8; 8 ]; [ 8; 10; 4 ]; [ 6; 10; 8 ] |].(j mod 5)
      in
      item Dse
        [
          ("cmd", str "dse");
          ("kernel", str "gemm");
          ("sizes", ints sizes);
          ("arch", str (if j / 5 mod 2 = 0 then "tpu-8x8-systolic" else "mesh-8x8"));
          ("search", str "pruned");
          ("top", Json.Int (if j < 10 then 3 else 5));
        ]
  | Params _ ->
      let s = j mod Array.length structures in
      let arch, df = structures.(s) in
      (* distinct multiples of 8 inside the fitted range: one residue
         class per structure *)
      let x = j / Array.length structures * 13 mod 64 in
      let d k = 16 + (8 * k) in
      item (Params s)
        [
          ("cmd", str "analyze");
          ("kernel", str "gemm");
          ("sizes", ints [ d (x mod 4); d (x / 4 mod 4); d (x / 16) ]);
          ("arch", str arch);
          ("dataflow", str df);
          ("params", Json.List [ str "i"; str "j"; str "k" ]);
        ]
  | Relational ->
      item Relational
        [
          ("cmd", str "analyze");
          ("kernel", str "gemm");
          ( "sizes",
            ints [| [ 8; 8; 8 ]; [ 12; 8; 8 ]; [ 8; 12; 8 ]; [ 12; 12; 12 ] |].(j) );
          ("engine", str "relational");
        ]
  | C_source ->
      let d k = 8 + (4 * k) in
      item C_source
        [
          ("cmd", str "analyze");
          ("c_source", str (gemm_c_source (d (j mod 3), d (j / 3 mod 3), d (j / 9))));
        ]
  | Scale_dims ->
      let s = [| 32; 48; 64 |].(j) in
      item Scale_dims
        [
          ("cmd", str "analyze");
          ("kernel", str "gemm");
          ("sizes", ints [ s; s; s ]);
          ("scale_dims", Json.List [ str "k" ]);
        ]
  | Malformed ->
      { kind; sampled = false; line = malformed.(j mod Array.length malformed) }

(* Kinds interleaved evenly over the popularity ranks: the j-th of a
   kind's n items sits at (j + 1/2) / n. *)
let ranked rng : item array =
  let slots =
    List.concat_map
      (fun (kind, n) ->
        let items = Array.init n (fun j -> make_item kind j) in
        let order = Array.init n Fun.id in
        shuffle rng order;
        List.init n (fun j ->
            ((float_of_int j +. 0.5) /. float_of_int n, items.(order.(j)))))
      kinds
  in
  List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) slots
  |> List.map snd |> Array.of_list

let multiplicity c r = max 1 (Float.to_int (Float.round (c /. float_of_int r)))

(* The Zipf constant c that brings the pass closest to [pass_target]. *)
let zipf_c (k : int) : float =
  let total c =
    let s = ref 0 in
    for r = 1 to k do
      s := !s + multiplicity c r
    done;
    !s
  in
  let best = ref (1., max_int) in
  for c10 = 10 to 20_000 do
    let c = float_of_int c10 /. 10. in
    let d = abs (total c - pass_target) in
    if d < snd !best then best := (c, d)
  done;
  fst !best

(* The warm-up prefix: every seventh analyze, check, dse, c_source and
   malformed item, the first params request of each structure and every
   scale_dims request. *)
let in_prefix (kind : kind) (j : int) : bool =
  match kind with
  | Scale_dims -> true
  | Params _ -> j < Array.length structures
  | Volumes | Relational -> false
  | _ -> j mod 7 = 0

type stream = {
  prefix : (item * string) array;  (** warm-up lines *)
  pass : (item * string) array;  (** pass op i carries request id "p<i>" *)
}

let stream ~(seed : int) : stream =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let items = ranked rng in
  let c = zipf_c (Array.length items) in
  let prefix =
    List.concat_map
      (fun (kind, n) ->
        List.filter_map
          (fun j -> if in_prefix kind j then Some (make_item kind j) else None)
          (List.init n Fun.id))
      kinds
    |> List.mapi (fun i it -> (it, it.line ("w" ^ string_of_int i)))
    |> Array.of_list
  in
  let pass =
    Array.to_list items
    |> List.mapi (fun r it -> Array.make (multiplicity c (r + 1)) it)
    |> Array.concat
  in
  shuffle rng pass;
  { prefix; pass = Array.mapi (fun i it -> (it, it.line (H.op_trace i))) pass }

let inputs ~seed =
  let s = stream ~seed in
  List.map (fun (_, l) -> "prefix " ^ l) (Array.to_list s.prefix)
  @ List.map (fun (_, l) -> "pass " ^ l) (Array.to_list s.pass)

(* The calls `tenet batch` makes for one line.  [words] records pass op
   [i]'s Api.run allocation in accounting rounds. *)
let serve_line (i : int option) (line : string) (words : float array) :
    Api.Response.t * string =
  let resp =
    match H.call H.codec_in (fun () -> P.parse_request line) with
    | Error resp -> resp
    | Ok r ->
        let resp = H.call H.serve (fun () -> Api.run r) in
        Option.iter (fun i -> words.(i) <- !H.last_words) i;
        resp
  in
  (resp, H.call H.codec_out (fun () -> P.response_line resp))

(* The line with its request id blanked: what every response for one
   fingerprint must share byte for byte. *)
let blank_id (id : string) (line : string) : string =
  let key = Printf.sprintf {|"id":"%s"|} id in
  let n = String.length key in
  let rec find i =
    if i + n > String.length line then line
    else if String.sub line i n = key then
      String.sub line 0 i ^ {|"id":""|}
      ^ String.sub line (i + n) (String.length line - i - n)
    else find (i + 1)
  in
  find 0

let instances (r : Api.Request.t) = List.fold_left ( * ) 1 r.Api.Request.sizes

(* A params response must carry the metrics a concrete analysis of the
   same request computes.  Checked on the smaller sizes only, to keep
   the check cheap. *)
let params_agree (r : Api.Request.t) (resp : Api.Response.t) : string option =
  match resp.Api.Response.body.Api.Response.payload with
  | Some (Api.Response.Metrics { dataflow; metrics; _ }) ->
      let op = Api.op_of r in
      let spec = Api.arch_of r and df = Api.dataflow_of r op in
      let m =
        M.Concrete.analyze ~adjacency:r.Api.Request.adjacency
          ~window:r.Api.Request.window spec op df
      in
      if metrics_text df m = metrics_text dataflow metrics then None
      else Some "params response differs from the concrete analysis"
  | _ -> Some "params request did not return metrics"

(* Simulated cycles against the served stamped latency. *)
let served_err (r : Api.Request.t) (resp : Api.Response.t) : float option =
  match resp.Api.Response.body.Api.Response.payload with
  | Some (Api.Response.Metrics { metrics; _ }) ->
      let op = Api.op_of r in
      let spec = Api.arch_of r and df = Api.dataflow_of r op in
      let sim = Sim.run spec op df in
      Some (rel_err ~model:metrics.M.Metrics.latency_stamped ~cycles:sim.Sim.cycles)
  | _ -> None

let workload ~(seed : int) : H.workload =
  let s = stream ~seed in
  let n = Array.length s.pass in
  let setup () =
    let warm = Array.map (fun (_, line) -> serve_line None line [||]) s.prefix in
    let responses = Array.make n None and words = Array.make n 0. in
    let op i =
      let resp, out = serve_line (Some i) (snd s.pass.(i)) words in
      responses.(i) <- Some (resp, out);
      fun () ->
        let error =
          let status = resp.Api.Response.body.Api.Response.status in
          match ((fst s.pass.(i)).kind, status) with
          | Malformed, `Error -> None
          | Malformed, _ -> Some "a malformed request was not refused"
          | _, `Ok -> None
          | _, _ -> Some ("request failed: " ^ out)
        in
        H.check ?error out
    in
    let summary ~full =
      (* Walk the prefix, then the pass, in order.  A pass op is a hit
         when it returns the very body the first response for its
         fingerprint carried (that is what the cache holds). *)
      let first = Hashtbl.create 512 in
      let cls = Array.make n "miss" and lookups = ref 0 and failures = ref [] in
      let errs = ref [] in
      let visit ~pass i (it : item) id ((resp : Api.Response.t), out) =
        let fail e = if pass then failures := (i, e) :: !failures in
        match P.parse_request (if pass then snd s.pass.(i) else snd s.prefix.(i)) with
        | Error _ -> ()
        | Ok r -> (
            if pass then incr lookups;
            let body = resp.Api.Response.body in
            let fp = Api.Request.fingerprint r in
            match Hashtbl.find_opt first fp with
            | Some (b, line) ->
                if pass && b == body then cls.(i) <- "hit";
                if blank_id id out <> line then
                  fail "response bytes differ from the first for its fingerprint"
            | None when body.Api.Response.status = `Ok ->
                Hashtbl.add first fp (body, blank_id id out);
                if full then begin
                  (match it.kind with
                  | Params _ when instances r <= 40_000 ->
                      Option.iter fail (params_agree r resp)
                  | _ -> ());
                  if it.sampled then
                    Option.iter (fun e -> errs := e :: !errs) (served_err r resp)
                end
            | None -> ())
      in
      Array.iteri
        (fun i (it, _) -> visit ~pass:false i it ("w" ^ string_of_int i) warm.(i))
        s.prefix;
      Array.iteri
        (fun i r -> Option.iter (visit ~pass:true i (fst s.pass.(i)) (H.op_trace i)) r)
        responses;
      let hits = Array.fold_left (fun k c -> if c = "hit" then k + 1 else k) 0 cls in
      let hit_words = ref 0. in
      Array.iteri (fun i c -> if c = "hit" then hit_words := !hit_words +. words.(i)) cls;
      let share p =
        let k = Array.fold_left (fun k (it, _) -> if p it.kind then k + 1 else k) 0 s.pass in
        float_of_int k /. float_of_int n
      in
      {
        H.model_err_pct = (if full then 100. *. mean !errs else nan);
        counts =
          [
            ("serve.lookups", float_of_int !lookups);
            ("serve.hits", float_of_int hits);
            ("serve.hit_alloc_mb", H.mb_of_words !hit_words);
          ];
        shares =
          ("hit_share", float_of_int hits /. float_of_int n)
          :: List.map
               (fun (k, _) ->
                 (* params requests are the template tier's *)
                 let key = match k with Params _ -> "template" | k -> kind_name k in
                 (key ^ "_share", share (fun k' -> kind_name k' = kind_name k)))
               kinds;
        failures = List.rev !failures;
        op_class = (fun i -> cls.(i));
      }
    in
    { H.n_ops = n; op; summary }
  in
  {
    H.name;
    round_s = 3.3;
    setup_reps = 1;
    reset =
      (fun () ->
        Api.clear_cache ();
        Tenet.Isl.Count.cache_clear ());
    setup;
  }

(* The versioned request/response API (docs/serving.md): one entry point,
   [run : Request.t -> Response.t], shared by the one-shot CLI commands,
   `tenet batch` and `tenet serve`.

   A request names a workload (kernel+sizes or C source), an architecture
   and a dataflow exactly like the CLI flags do; [run] builds the model
   inputs, executes the command as a sequence of named pipeline stages,
   and assembles a structured response.  Three behaviors live here rather
   than in the server so every caller gets them:

   - Deadlines.  [deadline_ms] is a processing budget measured from the
     moment [run] starts (queue wait is not charged).  Expiry is polled
     between stages: stages that already ran keep their results, stages
     after the expiry are skipped, and the response reports status
     "partial" with a TN013 diagnostic naming what was skipped.  A
     request whose stages all completed despite running past the deadline
     stays "ok" but still carries the TN013 warning.

   - Structured errors.  Malformed expressions, unknown names and invalid
     dataflows become "error" responses with kind [Bad_request] (carrying
     the parser's offset+fragment messages); everything unexpected
     becomes [Internal].  No exception escapes [run].

   - The result cache.  Complete "ok" responses are memoized in a
     byte-budgeted LRU ({!Cache}) keyed on the canonical request
     fingerprint — arch, op, dataflow, engine, adjacency and every other
     semantic field, but not [id] or [deadline_ms] — layered above the
     per-set counting caches so repeated and near-duplicate queries (the
     DSE access pattern) are O(lookup).  Identical requests therefore
     produce byte-identical responses.  Because the fingerprint excludes
     [deadline_ms], any body carrying a timing-dependent TN013 warning
     (over-deadline but complete) is excluded from the cache: replaying
     it for a request with a different (or no) deadline would be a lie. *)

module Isl = Tenet_isl
module Ir = Tenet_ir
module Arch = Tenet_arch
module Df = Tenet_dataflow
module M = Tenet_model
module Dse = Tenet_dse.Dse
module An = Tenet_analysis
module Obs = Tenet_obs
module Json = Tenet_obs.Json
module Parallel = Tenet_util.Parallel

let version = 1

let c_requests = Obs.counter "serve.requests"
let c_cache_hits = Obs.counter "serve.cache_hits"
let c_cache_misses = Obs.counter "serve.cache_misses"
let c_template_cache_hits = Obs.counter "serve.template_cache_hits"
let c_template_cache_misses = Obs.counter "serve.template_cache_misses"
let c_deadline_expired = Obs.counter "serve.deadline_expired"

(* Pre-registered so the per-request observation never takes the
   telemetry registry lock.  Values are in seconds (the stats exporters
   convert to ms at the edge). *)
let h_latency = Obs.histogram "serve.request_latency"
let h_queue_wait = Obs.histogram "serve.queue_wait"

(* Carry the submitting domain's trace id into pool workers: a traced
   request that fans out (or the one-shot CLI's instrumented engines)
   keeps its request id on the spans recorded by worker domains. *)
let () =
  Parallel.set_task_wrap (fun task ->
      match Obs.current_trace () with
      | "" -> task
      | trace -> fun () -> Obs.with_trace ~trace task)

(* ------------------------------------------------------------------ *)
(* Requests.                                                           *)
(* ------------------------------------------------------------------ *)

module Request = struct
  type cmd = Analyze | Volumes | Dse | Check | Stats

  type t = {
    api_version : int;
    id : string;
    cmd : cmd;
    kernel : string;
    sizes : int list;
    c_source : string option; (* overrides kernel/sizes when present *)
    arch : string;
    bandwidth : int option;
    space : string;
    time : string;
    dataflow : string option; (* zoo name; overrides space/time *)
    engine : [ `Concrete | `Relational ];
    adjacency : [ `Inner_step | `Lex_step ];
    window : int;
    strict : bool;
    scale_dims : string list;
    params : string list; (* analyze: dims kept as template parameters *)
    tensors : string list; (* volumes: subset of tensors; [] = all *)
    search : [ `Exhaustive | `Pruned | `Heuristic ]; (* dse mode *)
    budget : int option; (* dse: heuristic evaluation cap *)
    top : int;
    deadline_ms : int option;
    priority : Admission.priority; (* admission tier under load *)
    format : [ `Json | `Prometheus ]; (* stats: response encoding *)
  }

  let default cmd =
    {
      api_version = version;
      id = "";
      cmd;
      kernel = "gemm";
      sizes = [ 64; 64; 64 ];
      c_source = None;
      arch = "tpu-8x8-systolic";
      bandwidth = None;
      space = "i%8,j%8";
      time = "i/8,j/8,i%8+j%8+k";
      dataflow = None;
      engine = `Concrete;
      adjacency = `Inner_step;
      window = 1;
      strict = false;
      scale_dims = [];
      params = [];
      tensors = [];
      search = `Exhaustive;
      budget = None;
      top = 10;
      deadline_ms = None;
      priority = `Normal;
      format = `Json;
    }

  (* The wire schema: one row per field, in canonical order.  The
     encoder, the decoder and the fingerprint are all derived from this
     table, so a field is added (or renamed) in exactly one place. *)
  type _ codec =
    | String : string codec
    | Int : int option -> int codec (* with an optional minimum *)
    | Bool : bool codec
    | List : 'a codec -> 'a list codec
    | Option : 'a codec -> 'a option codec (* None is null *)
    | Enum : (string * 'a) list -> 'a codec (* wire names, in order *)

  type field =
    | Field : {
        name : string;
        codec : 'a codec;
        get : t -> 'a;
        set : t -> 'a -> t;
        inert : bool; (* blanked in the fingerprint *)
      }
        -> field

  let field ?(inert = false) name codec get set =
    Field { name; codec; get; set; inert }

  let cmds =
    [
      ("analyze", Analyze);
      ("volumes", Volumes);
      ("dse", Dse);
      ("check", Check);
      ("stats", Stats);
    ]

  let fields =
    [
      field "api_version" (Int None)
        (fun r -> r.api_version)
        (fun r v -> { r with api_version = v });
      field ~inert:true "id" String
        (fun r -> r.id)
        (fun r v -> { r with id = v });
      field "cmd" (Enum cmds) (fun r -> r.cmd) (fun r v -> { r with cmd = v });
      field "kernel" String
        (fun r -> r.kernel)
        (fun r v -> { r with kernel = v });
      field "sizes" (List (Int None))
        (fun r -> r.sizes)
        (fun r v -> { r with sizes = v });
      field "c_source" (Option String)
        (fun r -> r.c_source)
        (fun r v -> { r with c_source = v });
      field "arch" String (fun r -> r.arch) (fun r v -> { r with arch = v });
      field "bandwidth" (Option (Int None))
        (fun r -> r.bandwidth)
        (fun r v -> { r with bandwidth = v });
      field "space" String (fun r -> r.space) (fun r v -> { r with space = v });
      field "time" String (fun r -> r.time) (fun r v -> { r with time = v });
      field "dataflow" (Option String)
        (fun r -> r.dataflow)
        (fun r v -> { r with dataflow = v });
      field "engine"
        (Enum [ ("concrete", `Concrete); ("relational", `Relational) ])
        (fun r -> r.engine)
        (fun r v -> { r with engine = v });
      field "adjacency"
        (Enum [ ("inner", `Inner_step); ("lex", `Lex_step) ])
        (fun r -> r.adjacency)
        (fun r v -> { r with adjacency = v });
      field "window" (Int (Some 1))
        (fun r -> r.window)
        (fun r v -> { r with window = v });
      field "strict" Bool
        (fun r -> r.strict)
        (fun r v -> { r with strict = v });
      field "scale_dims" (List String)
        (fun r -> r.scale_dims)
        (fun r v -> { r with scale_dims = v });
      field "params" (List String)
        (fun r -> r.params)
        (fun r v -> { r with params = v });
      field "tensors" (List String)
        (fun r -> r.tensors)
        (fun r v -> { r with tensors = v });
      field "search"
        (Enum
           [
             ("exhaustive", `Exhaustive);
             ("pruned", `Pruned);
             ("heuristic", `Heuristic);
           ])
        (fun r -> r.search)
        (fun r v -> { r with search = v });
      field "budget" (Option (Int (Some 1)))
        (fun r -> r.budget)
        (fun r v -> { r with budget = v });
      field "top" (Int (Some 0))
        (fun r -> r.top)
        (fun r v -> { r with top = v });
      field ~inert:true "deadline_ms" (Option (Int (Some 0)))
        (fun r -> r.deadline_ms)
        (fun r v -> { r with deadline_ms = v });
      (* [priority] only changes the admission tier, never the result *)
      field ~inert:true "priority"
        (Enum [ ("high", `High); ("normal", `Normal); ("low", `Low) ])
        (fun r -> r.priority)
        (fun r v -> { r with priority = v });
      (* [format] only changes the stats encoding; stats is never cached *)
      field ~inert:true "format"
        (Enum [ ("json", `Json); ("prometheus", `Prometheus) ])
        (fun r -> r.format)
        (fun r v -> { r with format = v });
    ]

  let by_name =
    let t = Hashtbl.create 32 in
    List.iter (fun (Field f as row) -> Hashtbl.replace t f.name row) fields;
    t

  (* Enum values are constant constructors, so physical equality is
     their equality, with no polymorphic compare on the encode path. *)
  let rec name_of cases v =
    match cases with
    | (name, x) :: rest -> if x == v then name else name_of rest v
    | [] -> raise Not_found

  let cmd_name c = name_of cmds c

  let rec encode : type a. a codec -> a -> Json.t =
   fun c v ->
    match (c, v) with
    | String, s -> Json.String s
    | Int _, n -> Json.Int n
    | Bool, b -> Json.Bool b
    | List c, l -> Json.List (List.map (encode c) l)
    | Option _, None -> Json.Null
    | Option c, Some x -> encode c x
    | Enum cases, x -> Json.String (name_of cases x)

  let rec expected : type a. plural:bool -> a codec -> string =
   fun ~plural -> function
    | String | Enum _ -> if plural then "strings" else "a string"
    | Int _ -> if plural then "integers" else "an integer"
    | Bool -> if plural then "booleans" else "a boolean"
    | List c -> "a list of " ^ expected ~plural:true c
    | Option c -> expected ~plural c

  let rec decode : type a. string -> a codec -> Json.t -> (a, string) result =
   fun k c j ->
    match (c, j) with
    | String, Json.String s -> Ok s
    | Int (Some min), Json.Int n when n < min ->
        Error (Printf.sprintf "field %S must be >= %d" k min)
    | Int _, Json.Int n -> Ok n
    | Bool, Json.Bool b -> Ok b
    | List c, Json.List l ->
        let rec each acc = function
          | [] -> Ok (List.rev acc)
          | v :: rest ->
              Result.bind (decode k c v) (fun x -> each (x :: acc) rest)
        in
        each [] l
    | Option c, _ -> Result.map Option.some (decode k c j)
    | Enum cases, Json.String s -> (
        match List.assoc_opt s cases with
        | Some x -> Ok x
        | None ->
            Error (Tenet_util.Text.unknown ~what:k s (List.map fst cases)))
    | _ ->
        Error
          (Printf.sprintf "field %S must be %s" k (expected ~plural:false c))

  (* Canonical encoding: every field, table order, options as null.
     [fingerprint] depends on this being stable. *)
  let encode_fields (pick : bool -> t) : Json.t =
    Json.Obj
      (List.map
         (fun (Field f) -> (f.name, encode f.codec (f.get (pick f.inert))))
         fields)

  let to_json (r : t) : Json.t = encode_fields (fun _ -> r)

  type decode_error = Bad_field of string | Bad_version of int

  let decode_error_message = function
    | Bad_field m -> m
    | Bad_version v ->
        Printf.sprintf
          "unsupported api_version %d (this server speaks version %d)" v
          version

  (* Total decode: unknown fields and type mismatches are errors, every
     known field is optional except [cmd], null means "use the default".
     Fields decode in input order and the first error wins. *)
  let of_json (j : Json.t) : (t, decode_error) result =
    let bad fmt = Printf.ksprintf (fun m -> Error (Bad_field m)) fmt in
    let rec go r = function
      | [] -> Ok r
      | (_, Json.Null) :: rest -> go r rest
      | (k, v) :: rest -> (
          match Hashtbl.find_opt by_name k with
          | None -> bad "unknown request field %S" k
          | Some (Field f) -> (
              match decode k f.codec v with
              | Ok x -> go (f.set r x) rest
              | Error m -> Error (Bad_field m)))
    in
    match j with
    | Json.Obj members -> (
        match go (default Analyze) members with
        | Error _ as e -> e
        | Ok _ when not (List.mem_assoc "cmd" members) ->
            bad "missing request field \"cmd\""
        | Ok r when r.api_version <> version ->
            Error (Bad_version r.api_version)
        | Ok r -> Ok r)
    | _ -> bad "a request must be a JSON object"

  (* The cache key: the canonical encoding with the inert fields at
     their defaults (which no cmd changes). *)
  let blank = default Analyze

  let fingerprint (r : t) : string =
    Json.to_string (encode_fields (fun inert -> if inert then blank else r))
end

(* ------------------------------------------------------------------ *)
(* Responses.                                                          *)
(* ------------------------------------------------------------------ *)

module Response = struct
  type error_kind = Bad_request | Unsupported_version | Overloaded | Internal

  type dse_outcome = {
    o_dataflow : Df.Dataflow.t;
    o_expressible : bool;
    o_metrics : M.Metrics.t;
  }

  type payload =
    | Metrics of {
        dataflow : Df.Dataflow.t;
        metrics : M.Metrics.t;
        forms : (string * string) list;
            (* closed forms per metric component; non-empty only when the
               request kept [params] and the template covered the size *)
      }
    | Volumes of {
        dataflow : Df.Dataflow.t;
        tensors :
          (string * Ir.Tensor_op.direction * M.Metrics.volumes) list;
      }
    | Dse_result of {
        candidates : int;
        pruned : int;
        valid : int;
        outcomes : dse_outcome list; (* best-first, truncated to [top] *)
      }
    | Stats of Json.t

  type body = {
    status : [ `Ok | `Partial | `Error ];
    payload : payload option;
    diagnostics : An.Diagnostic.t list;
    error : (error_kind * string) option;
  }

  type t = {
    api_version : int;
    id : string;
    body : body;
    raw : string option;
        (* serialized body bytes from the persistent cache; when
           present, serialization splices them verbatim so a replayed
           response is byte-identical to the run that produced it *)
  }

  let error_kind_to_string = function
    | Bad_request -> "bad_request"
    | Unsupported_version -> "unsupported_version"
    | Overloaded -> "overloaded"
    | Internal -> "internal"

  (* Exit code the CLI maps each kind to (documented in
     docs/serving.md): client mistakes are distinguishable from server
     faults in shell scripts. *)
  let error_exit_code = function
    | Bad_request | Unsupported_version -> 2
    | Overloaded -> 3
    | Internal -> 1

  let status_to_string = function
    | `Ok -> "ok"
    | `Partial -> "partial"
    | `Error -> "error"

  let dataflow_json (df : Df.Dataflow.t) : Json.t =
    Json.Obj
      [
        ("name", Json.String df.Df.Dataflow.name);
        ( "space",
          Json.List
            (List.map
               (fun e -> Json.String (Isl.Aff.to_string e))
               df.Df.Dataflow.space) );
        ( "time",
          Json.List
            (List.map
               (fun e -> Json.String (Isl.Aff.to_string e))
               df.Df.Dataflow.time) );
      ]

  let direction_string = function
    | Ir.Tensor_op.Read -> "in"
    | Ir.Tensor_op.Write -> "out"

  let payload_json = function
    | Metrics { dataflow; metrics; forms } ->
        Json.Obj
          ([
             ("kind", Json.String "metrics");
             ("dataflow", dataflow_json dataflow);
             ("metrics", M.Metrics.to_json metrics);
           ]
          @
          match forms with
          | [] -> []
          | fs ->
              [
                ( "closed_forms",
                  Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) fs)
                );
              ])
    | Volumes { dataflow; tensors } ->
        Json.Obj
          [
            ("kind", Json.String "volumes");
            ("dataflow", dataflow_json dataflow);
            ( "tensors",
              Json.List
                (List.map
                   (fun (tensor, dir, v) ->
                     Json.Obj
                       [
                         ("tensor", Json.String tensor);
                         ("direction", Json.String (direction_string dir));
                         ("volumes", M.Metrics.volumes_to_json v);
                       ])
                   tensors) );
          ]
    | Dse_result { candidates; pruned; valid; outcomes } ->
        Json.Obj
          [
            ("kind", Json.String "dse");
            ("candidates", Json.Int candidates);
            ("pruned", Json.Int pruned);
            ("valid", Json.Int valid);
            ( "outcomes",
              Json.List
                (List.map
                   (fun o ->
                     Json.Obj
                       [
                         ("dataflow", dataflow_json o.o_dataflow);
                         ("expressible", Json.Bool o.o_expressible);
                         ("metrics", M.Metrics.to_json o.o_metrics);
                       ])
                   outcomes) );
          ]
    | Stats j -> Json.Obj [ ("kind", Json.String "stats"); ("stats", j) ]

  let body_fields (b : body) : (string * Json.t) list =
    [ ("status", Json.String (status_to_string b.status)) ]
    @ (match b.payload with
      | None -> []
      | Some p -> [ ("payload", payload_json p) ])
    @ (match b.diagnostics with
      | [] -> []
      | ds ->
          [ ("diagnostics", Json.List (List.map An.Diagnostic.to_json ds)) ])
    @
    match b.error with
    | None -> []
    | Some (kind, message) ->
        [
          ( "error",
            Json.Obj
              [
                ("kind", Json.String (error_kind_to_string kind));
                ("message", Json.String message);
              ] );
        ]

  let to_json (r : t) : Json.t =
    let fields =
      match r.raw with
      | Some s -> (
          (* Disk-cached bytes are validated on load to re-encode
             byte-identically (see [load_disk_cache]), so going through
             the printer here still reproduces them exactly. *)
          match Json.parse s with
          | Json.Obj fs -> fs
          | _ | (exception Json.Parse_error _) -> body_fields r.body)
      | None -> body_fields r.body
    in
    Json.Obj
      ([ ("api_version", Json.Int r.api_version); ("id", Json.String r.id) ]
      @ fields)

  let ok_body ?(diagnostics = []) payload =
    { status = `Ok; payload = Some payload; diagnostics; error = None }

  let error_body ?(diagnostics = []) kind message =
    { status = `Error; payload = None; diagnostics; error = Some (kind, message) }

  let error ~id kind message =
    { api_version = version; id; body = error_body kind message; raw = None }

  let is_error (r : t) = r.body.error <> None
end

(* ------------------------------------------------------------------ *)
(* Building model inputs from a request.                               *)
(* ------------------------------------------------------------------ *)

exception Bad of string
(* Client-side mistakes surfaced while building inputs; mapped to a
   [Bad_request] error response. *)

let known_kernels = [ "gemm"; "conv"; "conv1d"; "mttkrp"; "mmc"; "jacobi2d" ]

let kernel_of ~kernel ~sizes =
  if not (List.mem kernel known_kernels) then
    raise (Bad (Tenet_util.Text.unknown ~what:"kernel" kernel known_kernels));
  List.iter
    (fun n ->
      if n <= 0 then
        raise (Bad (Printf.sprintf "size %d is not a positive extent" n)))
    sizes;
  match (kernel, sizes) with
  | "gemm", [ ni; nj; nk ] -> Ir.Kernels.gemm ~ni ~nj ~nk
  | "conv", [ nk; nc; nox; noy; nrx; nry ] ->
      Ir.Kernels.conv2d ~nk ~nc ~nox ~noy ~nrx ~nry
  | "conv1d", [ no; nr ] -> Ir.Kernels.conv1d ~no ~nr
  | "mttkrp", [ ni; nj; nk; nl ] -> Ir.Kernels.mttkrp ~ni ~nj ~nk ~nl
  | "mmc", [ ni; nj; nk; nl ] -> Ir.Kernels.mmc ~ni ~nj ~nk ~nl
  | "jacobi2d", [ n ] -> Ir.Kernels.jacobi2d ~n
  | k, sz ->
      raise
        (Bad
           (Printf.sprintf
              "kernel %s got %d sizes (expected: gemm i,j,k | conv \
               k,c,ox,oy,rx,ry | conv1d o,r | mttkrp i,j,k,l | mmc i,j,k,l \
               | jacobi2d n)"
              k (List.length sz)))

let op_of (r : Request.t) =
  match r.Request.c_source with
  | Some src -> (
      (* [Cfront.parse] raises [Syntax_error] for malformed input, but
         building the op can also reject e.g. a subscript naming an
         unknown iterator with [Invalid_argument] — equally a mistake in
         the client's C source, so surface it as [Bad]. *)
      try Ir.Cfront.parse src with Invalid_argument msg -> raise (Bad msg))
  | None -> kernel_of ~kernel:r.Request.kernel ~sizes:r.Request.sizes

let arch_of (r : Request.t) =
  let spec =
    try Arch.Repository.find r.Request.arch
    with Invalid_argument msg -> raise (Bad msg)
  in
  match r.Request.bandwidth with
  | Some bw when bw <= 0 ->
      raise (Bad (Printf.sprintf "bandwidth %d is not positive" bw))
  | Some bw -> Arch.Spec.with_bandwidth bw spec
  | None -> spec

let dataflow_of (r : Request.t) op =
  match r.Request.dataflow with
  | Some name -> (
      try Df.Zoo.find name with Invalid_argument msg -> raise (Bad msg))
  | None ->
      let dims = Ir.Tensor_op.iter_names op in
      Df.Dataflow.make ~name:"(request)"
        ~space:(Isl.Parser.exprs ~dims r.Request.space)
        ~time:(Isl.Parser.exprs ~dims r.Request.time)

(* ------------------------------------------------------------------ *)
(* The result cache.                                                   *)
(* ------------------------------------------------------------------ *)

let cache_env = "TENET_SERVE_CACHE_MB"

let cache_budget_bytes () =
  match Sys.getenv_opt cache_env with
  | None | Some "" -> 64 * 1024 * 1024
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some mb when mb >= 0 -> mb * 1024 * 1024
      | _ ->
          failwith
            (Printf.sprintf "bad %s %S: expected a non-negative integer \
                             number of megabytes" cache_env s))

(* Entries are either typed bodies (results computed in this process)
   or raw serialized body bytes reloaded from the persistent tier —
   kept as bytes end-to-end so a warm restart replays responses
   byte-identical to the run that produced them. *)
type cached = Cached_body of Response.body | Cached_raw of string

(* Built on first use, not at module init, so a malformed budget fails
   only the commands that serve.  First uses race on pool domains: the
   compare-and-set keeps one cache and every racer returns it (a plain
   [lazy] raises [CamlinternalLazy.Undefined] in the losers). *)
let global_cache : cached Cache.t option Atomic.t = Atomic.make None

let result_cache () =
  match Atomic.get global_cache with
  | Some c -> c
  | None ->
      let c = Cache.create ~bytes:(cache_budget_bytes ()) () in
      if Atomic.compare_and_set global_cache None (Some c) then c
      else Option.get (Atomic.get global_cache)

(* ------------------------------------------------------------------ *)
(* The persistent tier (Disk_cache): loaded under the same LRU, saved  *)
(* from it.                                                            *)
(* ------------------------------------------------------------------ *)

let c_disk_rejected = Obs.counter "serve.disk_cache_rejected"

(* Where the persistent tier lives (set by [load_disk_cache]) and how
   many entries it contributed, for the stats payload. *)
let disk_mutex = Mutex.create ()
let disk_dir : string option ref = ref None
let disk_loaded : int ref = ref 0

let load_disk_cache ~dir : int =
  let cache = result_cache () in
  let accepted =
    List.fold_left
      (fun n (e : Disk_cache.entry) ->
        (* Accept only entries whose bytes are a JSON object with "ok"
           status that re-encode byte-identically: anything else (torn
           writes that still parse, hand-edited files, a printer drift
           across versions) would break the byte-identity contract the
           raw path exists for, so it is recomputed instead. *)
        match Json.parse e.Disk_cache.body with
        | exception Json.Parse_error _ ->
            Obs.incr c_disk_rejected;
            n
        | j ->
            let ok_status =
              match Json.member "status" j with
              | Some (Json.String "ok") -> true
              | _ -> false
            in
            if ok_status && Json.to_string j = e.Disk_cache.body then begin
              Cache.add cache ~key:e.Disk_cache.key
                ~size:(String.length e.Disk_cache.body)
                (Cached_raw e.Disk_cache.body);
              n + 1
            end
            else begin
              Obs.incr c_disk_rejected;
              n
            end)
      0 (Disk_cache.load ~dir)
  in
  Mutex.lock disk_mutex;
  disk_dir := Some dir;
  disk_loaded := accepted;
  Mutex.unlock disk_mutex;
  accepted

let save_disk_cache ~dir : int =
  let entries =
    Cache.fold (result_cache ()) ~init:[] ~f:(fun acc ~key ~size:_ v ->
        let body =
          match v with
          | Cached_raw s -> s
          | Cached_body b ->
              Json.to_string (Json.Obj (Response.body_fields b))
        in
        { Disk_cache.key; body } :: acc)
  in
  Disk_cache.merge_save ~dir entries

(* ------------------------------------------------------------------ *)
(* The template cache tier.                                            *)
(*                                                                     *)
(* Requests that keep [params] share one compiled metric template per  *)
(* dataflow *structure*: the key is the request fingerprint with the   *)
(* [sizes] field abstracted away, re-anchored on the extents of the    *)
(* dims that are NOT parameters (those stay baked into the template).  *)
(* A hit answers any concrete size by O(1) substitution — no counting, *)
(* no enumeration — where the template's per-class fit covers it.      *)
(* ------------------------------------------------------------------ *)

let template_mutex = Mutex.create ()
let template_cache : (string, M.Template.t) Hashtbl.t = Hashtbl.create 16

let clear_cache () =
  Cache.clear (result_cache ());
  Mutex.lock template_mutex;
  Hashtbl.reset template_cache;
  Mutex.unlock template_mutex

let template_key (r : Request.t) op =
  let fixed =
    List.filter_map
      (fun d ->
        if List.mem d r.Request.params then None
        else
          let lo, hi = Ir.Tensor_op.iter_bounds op d in
          Some (Printf.sprintf "%s=%d" d (hi - lo + 1)))
      (Ir.Tensor_op.iter_names op)
  in
  Request.fingerprint { r with Request.sizes = [] }
  ^ "|" ^ String.concat "," fixed

(* Gauges contributed by the server loop (inflight), spliced into
   [stats] responses when serving. *)
let extra_gauges : (unit -> (string * int) list) ref = ref (fun () -> [])
let set_extra_gauges f = extra_gauges := f

(* The JSON stats scrape reports the recent window — everything since
   the previous JSON scrape — via Snapshot.diff, so the monitoring loop
   that polls stats every N seconds gets rates and window quantiles
   without ever resetting the lifetime telemetry.  Prometheus scrapes
   export raw cumulative series (rates are the scraper's job) and
   deliberately do not advance the window. *)
let window_mutex = Mutex.create ()
let last_snapshot : Obs.Snapshot.t option ref = ref None

let hist_ms_json (h : Obs.Snapshot.hist) : Json.t =
  let ms v = Json.Float (1e3 *. v) in
  Json.Obj
    [
      ("count", Json.Int h.Obs.Snapshot.hs_count);
      ("mean_ms", ms (Obs.Snapshot.mean h));
      ("p50_ms", ms (Obs.Snapshot.quantile h 0.5));
      ("p90_ms", ms (Obs.Snapshot.quantile h 0.9));
      ("p99_ms", ms (Obs.Snapshot.quantile h 0.99));
      ("p999_ms", ms (Obs.Snapshot.quantile h 0.999));
      ("max_ms", ms h.Obs.Snapshot.hs_max);
    ]

(* Advance the window: diff against the previous JSON scrape.  The
   first scrape has no window yet and reports nothing. *)
let window_json () : (string * Json.t) list =
  let nwer = Obs.Snapshot.take () in
  let prev =
    Mutex.lock window_mutex;
    let p = !last_snapshot in
    last_snapshot := Some nwer;
    Mutex.unlock window_mutex;
    p
  in
  match prev with
  | None -> []
  | Some older ->
      let d = Obs.Snapshot.diff ~newer:nwer ~older in
      let hits = Obs.Snapshot.counter d "serve.cache_hits" in
      let misses = Obs.Snapshot.counter d "serve.cache_misses" in
      let hit_ratio =
        if hits + misses = 0 then 0.
        else float_of_int hits /. float_of_int (hits + misses)
      in
      let hist_fields name key =
        match Obs.Snapshot.hist d name with
        | Some h when h.Obs.Snapshot.hs_count > 0 ->
            [ (key, hist_ms_json h) ]
        | _ -> []
      in
      [
        ( "window",
          Json.Obj
            ([
               ("duration_s", Json.Float d.Obs.Snapshot.s_duration);
               ( "requests",
                 Json.Int (Obs.Snapshot.counter d "serve.requests") );
               ( "request_rate_rps",
                 Json.Float (Obs.Snapshot.rate d "serve.requests") );
               ("cache_hit_ratio", Json.Float hit_ratio);
               ( "overloaded",
                 Json.Int (Obs.Snapshot.counter d "serve.overloaded") );
               ( "deadline_expired",
                 Json.Int (Obs.Snapshot.counter d "serve.deadline_expired") );
             ]
            @ hist_fields "serve.request_latency" "latency_ms"
            @ hist_fields "serve.queue_wait" "queue_wait_ms") );
      ]

(* Lifetime quantiles for a histogram cell, in milliseconds. *)
let lifetime_ms_json (h : Obs.histogram) : Json.t =
  let ms v = Json.Float (1e3 *. v) in
  Json.Obj
    [
      ("count", Json.Int (Obs.hist_count h));
      ("p50_ms", ms (Obs.quantile h 0.5));
      ("p99_ms", ms (Obs.quantile h 0.99));
      ("max_ms", ms (Obs.hist_max h));
    ]

(* The unified view of every cache tier — in-memory result LRU,
   template tier, persistent disk tier — consumed by the stats payload,
   the Prometheus gauges and the benches through one structured
   record instead of one accessor per tier. *)
type cache_tiers = {
  result : Cache.stats;
  template_entries : int;
  template_hits : int;
  template_misses : int;
  tiers_disk_dir : string option;
  disk_entries_loaded : int;
}

let cache_tiers () : cache_tiers =
  Mutex.lock disk_mutex;
  let dir = !disk_dir and loaded = !disk_loaded in
  Mutex.unlock disk_mutex;
  {
    result = Cache.stats (result_cache ());
    template_entries =
      Mutex.protect template_mutex (fun () -> Hashtbl.length template_cache);
    template_hits = Obs.value c_template_cache_hits;
    template_misses = Obs.value c_template_cache_misses;
    tiers_disk_dir = dir;
    disk_entries_loaded = loaded;
  }

let cache_tiers_json (t : cache_tiers) : Json.t =
  Json.Obj
    [
      ( "result",
        Json.Obj
          [
            ("entries", Json.Int t.result.Cache.entries);
            ("bytes", Json.Int t.result.Cache.bytes);
            ("budget_bytes", Json.Int t.result.Cache.budget);
            ("hits", Json.Int t.result.Cache.hits);
            ("misses", Json.Int t.result.Cache.misses);
            ("evictions", Json.Int t.result.Cache.evictions);
          ] );
      ( "template",
        Json.Obj
          [
            ("entries", Json.Int t.template_entries);
            ("hits", Json.Int t.template_hits);
            ("misses", Json.Int t.template_misses);
          ] );
      ( "disk",
        Json.Obj
          [
            ( "dir",
              match t.tiers_disk_dir with
              | None -> Json.Null
              | Some d -> Json.String d );
            ("entries_loaded", Json.Int t.disk_entries_loaded);
            ("rejected", Json.Int (Obs.value c_disk_rejected));
          ] );
    ]

let stats_payload () : Json.t =
  Json.Obj
    ([
       ("caches", cache_tiers_json (cache_tiers ()));
       ( "pool",
         Json.Obj
           [
             ("jobs", Json.Int (Parallel.jobs ()));
             ("queued", Json.Int (Parallel.waiting ()));
             ("running", Json.Int (Parallel.running ()));
           ] );
       ( "queue",
         Json.Obj
           [
             ("depth", Json.Int (Parallel.waiting ()));
             ( "overloaded",
               Json.Int (Obs.value (Obs.counter "serve.overloaded")) );
             ( "shed",
               Json.Obj
                 (List.map
                    (fun (k, v) -> (k, Json.Int v))
                    (Admission.counts ())) );
             ("wait", lifetime_ms_json h_queue_wait);
           ] );
     ]
    @ List.map (fun (k, v) -> (k, Json.Int v)) (!extra_gauges ())
    @ window_json ()
    @ [ ("telemetry", Obs.stats ()) ])

(* Prometheus text exposition of the same data: telemetry counters and
   histograms (cumulative buckets) from lib/obs, plus the serving
   gauges and the result cache's own counters. *)
let prometheus_text () : string =
  let t = cache_tiers () in
  let c = t.result in
  let gauges =
    [
      ("serve_queue_depth", float_of_int (Parallel.waiting ()));
      ("serve_pool_jobs", float_of_int (Parallel.jobs ()));
      ("serve_pool_workers", float_of_int (Parallel.spawned_workers ()));
      ("serve_pool_running", float_of_int (Parallel.running ()));
      ("serve_cache_entries", float_of_int c.Cache.entries);
      ("serve_cache_bytes", float_of_int c.Cache.bytes);
      ("serve_cache_budget_bytes", float_of_int c.Cache.budget);
      ("serve_template_cache_entries", float_of_int t.template_entries);
      ( "serve_disk_cache_entries_loaded",
        float_of_int t.disk_entries_loaded );
    ]
    @ List.map
        (fun (k, v) -> ("serve_" ^ k, float_of_int v))
        (!extra_gauges ())
  in
  let extra_counters =
    [
      ("serve_result_cache_hits", c.Cache.hits);
      ("serve_result_cache_misses", c.Cache.misses);
      ("serve_result_cache_evictions", c.Cache.evictions);
    ]
  in
  Obs.prometheus ~extra_counters ~gauges ()

let prometheus_payload () : Json.t =
  Json.Obj
    [
      ("format", Json.String "prometheus");
      ("exposition", Json.String (prometheus_text ()));
    ]

(* ------------------------------------------------------------------ *)
(* The pipeline driver.                                                *)
(* ------------------------------------------------------------------ *)

(* Run named stages in order.  The first stage always runs; afterwards,
   expiry is polled between stages and the remaining stages are skipped.
   Returns (expired, skipped stage names). *)
let drive (token : Parallel.token option) stages : bool * string list =
  let skipped = ref [] in
  let expired = ref false in
  List.iter
    (fun (name, f) ->
      if !expired then skipped := name :: !skipped
      else begin
        f ();
        match token with
        | Some t when Parallel.cancelled t -> expired := true
        | _ -> ()
      end)
    stages;
  (!expired, List.rev !skipped)

(* Close a staged run into a body: attach TN013 when the deadline
   expired, downgrade to "partial" when stages were actually skipped. *)
let close_stages (r : Request.t) ~expired ~skipped ?(diagnostics = [])
    payload : Response.body =
  if not expired then
    { status = `Ok; payload; diagnostics; error = None }
  else begin
    Obs.incr c_deadline_expired;
    let deadline = Option.value ~default:0 r.Request.deadline_ms in
    let d =
      An.Diagnostic.make "TN013"
        (if skipped = [] then
           Printf.sprintf
             "request ran past its %d ms deadline (all stages completed)"
             deadline
         else
           Printf.sprintf "deadline of %d ms expired; skipped stages: %s"
             deadline
             (String.concat ", " skipped))
    in
    {
      status = (if skipped = [] then `Ok else `Partial);
      payload;
      diagnostics = diagnostics @ [ d ];
      error = None;
    }
  end

exception Strict_failed of An.Diagnostic.t list

(* Analyze through the template tier: look up (or compile and insert)
   the size-abstracted template, then instantiate it at the request's
   own extents.  Sizes below a class's validity floor fall back to one
   concrete evaluation, exactly like an uncached request. *)
let analyze_via_template (r : Request.t) spec op df :
    M.Metrics.t * (string * string) list =
  let adjacency = r.Request.adjacency in
  let known = Ir.Tensor_op.iter_names op in
  List.iter
    (fun d ->
      if not (List.mem d known) then
        raise (Bad (Tenet_util.Text.unknown ~what:"param" d known)))
    r.Request.params;
  let key = template_key r op in
  let probe () =
    Mutex.lock template_mutex;
    let t = Hashtbl.find_opt template_cache key in
    Mutex.unlock template_mutex;
    t
  in
  let tpl =
    match probe () with
    | Some t ->
        Obs.incr c_template_cache_hits;
        t
    | None ->
        Obs.incr c_template_cache_misses;
        let t =
          try
            M.Template.compile ~adjacency ~window:r.Request.window spec op df
              ~params:r.Request.params
          with Invalid_argument msg -> raise (Bad msg)
        in
        (* insert-if-absent: a racing compile of the same key built the
           same (deterministic) template; keep the first *)
        Mutex.lock template_mutex;
        let t =
          match Hashtbl.find_opt template_cache key with
          | Some existing -> existing
          | None ->
              Hashtbl.add template_cache key t;
              t
        in
        Mutex.unlock template_mutex;
        t
  in
  let sizes =
    List.map
      (fun d ->
        let lo, hi = Ir.Tensor_op.iter_bounds op d in
        (d, hi - lo + 1))
      r.Request.params
  in
  match M.Template.try_instantiate tpl ~sizes with
  | Some m -> (m, M.Template.closed_forms tpl ~sizes)
  | None ->
      (M.Concrete.analyze ~adjacency ~window:r.Request.window spec op df, [])

let compute_metrics (r : Request.t) spec op df :
    M.Metrics.t * (string * string) list =
  let adjacency = r.Request.adjacency in
  if r.Request.params <> [] then begin
    if r.Request.scale_dims <> [] then
      raise (Bad "fields \"params\" and \"scale_dims\" are mutually exclusive");
    analyze_via_template r spec op df
  end
  else if r.Request.scale_dims <> [] then begin
    let known = Ir.Tensor_op.iter_names op in
    List.iter
      (fun d ->
        if not (List.mem d known) then
          raise (Bad (Tenet_util.Text.unknown ~what:"scale dim" d known)))
      r.Request.scale_dims;
    ( M.Scaled.analyze ~adjacency spec op df ~scale_dims:r.Request.scale_dims,
      [] )
  end
  else
    ( (match r.Request.engine with
      | `Relational -> M.Model.analyze ~adjacency spec op df
      | `Concrete ->
          M.Concrete.analyze ~adjacency ~window:r.Request.window spec op df),
      [] )

let run_analyze ~token (r : Request.t) : Response.body =
  let op = op_of r in
  let spec = arch_of r in
  let df = dataflow_of r op in
  let diags = ref [] in
  let metrics = ref None in
  let stages =
    (if r.Request.strict then
       [
         ( "check",
           fun () ->
             let ds =
               An.Checker.check ~adjacency:r.Request.adjacency spec op df
             in
             diags := ds;
             if An.Diagnostic.errors ds <> [] then raise (Strict_failed ds) );
       ]
     else [])
    @ [ ("metrics", fun () -> metrics := Some (compute_metrics r spec op df)) ]
  in
  let expired, skipped = drive token stages in
  close_stages r ~expired ~skipped ~diagnostics:!diags
    (Option.map
       (fun (m, forms) ->
         Response.Metrics { dataflow = df; metrics = m; forms })
       !metrics)

let run_volumes ~token (r : Request.t) : Response.body =
  let op = op_of r in
  let spec = arch_of r in
  let df = dataflow_of r op in
  (* volumes past the int range would wrap: refuse as the engines do *)
  ignore (M.Concrete.instance_count op);
  let all = Ir.Tensor_op.tensors op in
  let wanted =
    match r.Request.tensors with
    | [] -> all
    | ts ->
        List.iter
          (fun t ->
            if not (List.mem t all) then
              raise (Bad (Tenet_util.Text.unknown ~what:"tensor" t all)))
          ts;
        ts
  in
  let outputs = Ir.Tensor_op.outputs op in
  (* Channels are shared by every tensor stage; computing them lazily
     inside the first stage keeps the stage list free of a cheap
     "prepare" stage whose checkpoint would be timing-noise. *)
  let channels = ref None in
  let channels_of () =
    match !channels with
    | Some c -> c
    | None ->
        let c =
          Df.Spacetime.channels ~adjacency:r.Request.adjacency spec op df
        in
        channels := Some c;
        c
  in
  let results = ref [] in
  let stages =
    List.map
      (fun tensor ->
        ( Printf.sprintf "volumes[%s]" tensor,
          fun () ->
            let assignment = Df.Dataflow.data_assignment op df tensor in
            let v =
              M.Volumes.compute ~assignment ~channels:(channels_of ())
            in
            let dir =
              if List.mem tensor outputs then Ir.Tensor_op.Write
              else Ir.Tensor_op.Read
            in
            results := (tensor, dir, v) :: !results ))
      wanted
  in
  let expired, skipped = drive token stages in
  close_stages r ~expired ~skipped
    (Some
       (Response.Volumes { dataflow = df; tensors = List.rev !results }))

let run_dse ~token (r : Request.t) : Response.body =
  let op = op_of r in
  let spec = arch_of r in
  let cands = ref [] in
  let n_pruned = ref 0 in
  let outcomes = ref [] in
  let stages =
    [
      ( "candidates",
        fun () ->
          let rank = Arch.Pe_array.rank spec.Arch.Spec.pe in
          if rank < 1 || rank > 2 then
            raise
              (Bad
                 (Printf.sprintf
                    "dse needs a 1D or 2D PE array; %s has rank %d"
                    r.Request.arch rank));
          let p = (Arch.Pe_array.dims spec.Arch.Spec.pe).(0) in
          cands :=
            if rank = 2 then Dse.candidates_2d op ~p
            else Dse.candidates_1d op ~p );
      ( "evaluate",
        fun () ->
          let prefilter =
            if r.Request.strict then
              Some
                (fun df ->
                  An.Diagnostic.errors (An.Checker.precheck spec op df) = [])
            else None
          in
          let mode =
            match r.Request.search with
            | `Exhaustive -> Dse.Exhaustive
            | `Pruned -> Dse.Pruned
            | `Heuristic -> Dse.Heuristic
          in
          let result =
            Dse.search ~mode ?budget:r.Request.budget ?prefilter
              ~adjacency:r.Request.adjacency ~objective:Dse.Latency spec op
              !cands
          in
          (* every prune tier counts toward [pruned]: the strict
             prefilter's rejections are in [pruned_precheck] *)
          n_pruned :=
            result.Dse.stats.Dse.pruned_precheck
            + result.Dse.stats.Dse.pruned_symmetry
            + result.Dse.stats.Dse.pruned_capacity
            + result.Dse.stats.Dse.pruned_dominated;
          outcomes := result.Dse.outcomes );
    ]
  in
  let expired, skipped = drive token stages in
  let rec take n = function
    | x :: r when n > 0 -> x :: take (n - 1) r
    | _ -> []
  in
  close_stages r ~expired ~skipped
    (Some
       (Response.Dse_result
          {
            candidates = List.length !cands;
            pruned = !n_pruned;
            valid = List.length !outcomes;
            outcomes =
              List.map
                (fun (o : Dse.outcome) ->
                  {
                    Response.o_dataflow = o.Dse.dataflow;
                    o_expressible = o.Dse.expressible;
                    o_metrics = o.Dse.metrics;
                  })
                (take r.Request.top !outcomes);
          }))

let run_check ~token (r : Request.t) : Response.body =
  let op = op_of r in
  let spec = arch_of r in
  let df = dataflow_of r op in
  let diags = ref [] in
  let stages =
    [
      ( "check",
        fun () ->
          diags := An.Checker.check ~adjacency:r.Request.adjacency spec op df
      );
    ]
  in
  let expired, skipped = drive token stages in
  close_stages r ~expired ~skipped ~diagnostics:!diags None

let run_uncached ~token (r : Request.t) : Response.body =
  match r.Request.cmd with
  | Request.Analyze -> run_analyze ~token r
  | Request.Volumes -> run_volumes ~token r
  | Request.Dse -> run_dse ~token r
  | Request.Check -> run_check ~token r
  | Request.Stats ->
      Response.ok_body
        (Response.Stats
           (match r.Request.format with
           | `Json -> stats_payload ()
           | `Prometheus -> prometheus_payload ()))

(* ------------------------------------------------------------------ *)
(* The entry point.                                                    *)
(* ------------------------------------------------------------------ *)

let body_size (b : Response.body) : int =
  String.length (Json.to_string (Json.Obj (Response.body_fields b)))

let run (r : Request.t) : Response.t =
  Obs.incr c_requests;
  let t0 = Obs.now () in
  let cache_outcome = ref `Bypass in
  let resp =
    (* The request id doubles as the trace id: every span recorded under
       this request (including on pool workers, via the task wrap) and
       the access-log line carry it. *)
    Obs.with_trace ~trace:r.Request.id
    @@ fun () ->
    Obs.with_span
      ~args:[ ("cmd", Request.cmd_name r.Request.cmd) ]
      "serve.request"
    @@ fun () ->
    let respond body =
      { Response.api_version = version; id = r.Request.id; body; raw = None }
    in
    if r.Request.cmd = Request.Stats then
      (* never cached: the whole point is the live gauges *)
      respond (run_uncached ~token:None r)
    else begin
      let key = Request.fingerprint r in
      let cache = result_cache () in
      match Cache.find cache key with
      | Some (Cached_body body) ->
          Obs.incr c_cache_hits;
          cache_outcome := `Hit;
          respond body
      | Some (Cached_raw s) ->
          Obs.incr c_cache_hits;
          cache_outcome := `Hit;
          (* a warm-restart hit: replay the persisted bytes verbatim;
             the skeleton body only feeds the access log's status field *)
          {
            Response.api_version = version;
            id = r.Request.id;
            body =
              {
                Response.status = `Ok;
                payload = None;
                diagnostics = [];
                error = None;
              };
            raw = Some s;
          }
      | None ->
          Obs.incr c_cache_misses;
          cache_outcome := `Miss;
          let token =
            Option.map
              (fun ms ->
                Parallel.token ~deadline_s:(float_of_int ms /. 1000.) ())
              r.Request.deadline_ms
          in
          let body =
            try run_uncached ~token r with
            | Bad msg -> Response.error_body Response.Bad_request msg
            | Strict_failed ds ->
                Response.error_body ~diagnostics:ds Response.Bad_request
                  "the model checker rejected the dataflow (see diagnostics)"
            | Isl.Parser.Parse_error msg ->
                Response.error_body Response.Bad_request
                  ("parse error: " ^ msg)
            | Ir.Cfront.Syntax_error msg ->
                Response.error_body Response.Bad_request
                  ("C syntax error: " ^ msg)
            | M.Concrete.Invalid_dataflow msg | M.Model.Invalid_dataflow msg
              ->
                Response.error_body Response.Bad_request
                  ("invalid dataflow: " ^ msg)
            | Isl.Count.Verify_mismatch _ as e ->
                let ds =
                  match An.Checker.diagnostic_of_exn e with
                  | Some d -> [ d ]
                  | None -> []
                in
                Response.error_body ~diagnostics:ds Response.Internal
                  "counting sanitizer mismatch"
            | Failure msg | Invalid_argument msg ->
                (* A bare [Failure]/[Invalid_argument] reaching this far is
                   a broken internal invariant, not a client mistake: every
                   expected client-error site raises [Bad] (or one of the
                   typed exceptions above) explicitly. *)
                Response.error_body Response.Internal msg
            | e ->
                Response.error_body Response.Internal (Printexc.to_string e)
          in
          (* Only complete, successful results are worth replaying; errors
             are cheap, partials depend on the deadline that cut them, and
             an "ok" body that ran past its deadline carries a TN013
             warning the deadline-blind fingerprint must never replay. *)
          if
            body.Response.status = `Ok
            && body.Response.error = None
            && not
                 (List.exists
                    (fun d -> d.An.Diagnostic.code = "TN013")
                    body.Response.diagnostics)
          then
            Cache.add cache ~key ~size:(body_size body) (Cached_body body);
          respond body
    end
  in
  let latency_s = Obs.now () -. t0 in
  Obs.observe_h h_latency latency_s;
  let body = resp.Response.body in
  Access_log.record ~id:r.Request.id ~trace:r.Request.id
    ~cmd:(Request.cmd_name r.Request.cmd)
    ~fingerprint:
      (if Access_log.enabled () && r.Request.cmd <> Request.Stats then
         Some (Digest.to_hex (Digest.string (Request.fingerprint r)))
       else None)
    ~status:(Response.status_to_string body.Response.status)
    ~error_kind:
      (Option.map
         (fun (k, _) -> Response.error_kind_to_string k)
         body.Response.error)
    ~cache:!cache_outcome
    ~deadline_expired:
      (List.exists
         (fun d -> d.An.Diagnostic.code = "TN013")
         body.Response.diagnostics)
    ~latency_ms:(1e3 *. latency_s) ();
  resp

(* Total decode to either a typed request or a ready-to-send error
   response (the [id] recovered from the raw object when possible):
   the typed half of the server loop's request handling — admission
   control and the inline-stats path match on the decoded request, not
   on raw JSON members. *)
let decode (j : Json.t) : (Request.t, Response.t) result =
  match Request.of_json j with
  | Ok r -> Ok r
  | Error e ->
      let id =
        match Json.member "id" j with Some (Json.String s) -> s | _ -> ""
      in
      let kind =
        match e with
        | Request.Bad_version _ -> Response.Unsupported_version
        | Request.Bad_field _ -> Response.Bad_request
      in
      Error (Response.error ~id kind (Request.decode_error_message e))

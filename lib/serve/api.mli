(** The versioned request/response API: one entry point, {!run}, shared
    by the one-shot CLI commands, [tenet batch] and [tenet serve].

    Requests and responses are plain records with total JSON codecs
    built on {!Tenet_obs.Json}; the protocol is one JSON object per
    line (see {!Protocol} and docs/serving.md).  [run] never raises:
    malformed inputs become [Bad_request] error responses carrying the
    parser's offset+fragment diagnostics (anything else escaping the
    pipeline — a broken internal invariant — becomes [Internal]),
    deadline expiry becomes a ["partial"] response with a TN013
    diagnostic, and complete ["ok"] responses that carry no
    deadline-dependent warning are memoized in a byte-budgeted LRU keyed
    on the canonical request fingerprint, so identical requests produce
    byte-identical responses in O(lookup). *)

module Json = Tenet_obs.Json

val version : int
(** The protocol version this build speaks (currently 1).  Requests
    carrying any other [api_version] are refused with an
    [Unsupported_version] error. *)

module Request : sig
  type cmd = Analyze | Volumes | Dse | Check | Stats

  type t = {
    api_version : int;
    id : string;  (** echoed verbatim; correlates pipelined responses *)
    cmd : cmd;
    kernel : string;
    sizes : int list;
    c_source : string option;  (** C loop nest; overrides kernel/sizes *)
    arch : string;
    bandwidth : int option;
    space : string;
    time : string;
    dataflow : string option;  (** zoo name; overrides space/time *)
    engine : [ `Concrete | `Relational ];
    adjacency : [ `Inner_step | `Lex_step ];
    window : int;
    strict : bool;
    scale_dims : string list;
    params : string list;
        (** analyze only: iterator dims kept as free parameters.  The
            request is answered through a compiled metric template
            ({!Tenet_model.Template}) cached across sizes — one
            template per dataflow structure answers every concrete
            extent of the [params] dims in O(1) — and the response
            carries the template's closed forms.  Empty (the default)
            preserves the exact legacy behavior. *)
    tensors : string list;  (** volumes: subset of tensors; [] = all *)
    search : [ `Exhaustive | `Pruned | `Heuristic ];
        (** dse only: [`Exhaustive] (default) scores every candidate;
            [`Pruned] adds symmetry/dominance pruning with the same best
            outcomes; [`Heuristic] additionally caps full evaluations at
            [budget] *)
    budget : int option;  (** dse: heuristic evaluation cap *)
    top : int;
    deadline_ms : int option;  (** processing budget; see docs/serving.md *)
    priority : Admission.priority;
        (** admission tier under load (default [`Normal]): low-priority
            work sheds first at the graduated watermarks, high-priority
            work sheds only at the hard queue limit.  Never affects the
            result — the cache fingerprint blanks it. *)
    format : [ `Json | `Prometheus ];
        (** stats responses only: JSON payload (default) or Prometheus
            text exposition *)
  }

  val default : cmd -> t
  (** The defaults mirror the CLI flag defaults. *)

  val to_json : t -> Json.t
  (** Canonical encoding: every field, fixed order, options as [null].
      The encoder, {!of_json} and {!fingerprint} derive from one table
      of the wire fields. *)

  type decode_error = Bad_field of string | Bad_version of int

  val decode_error_message : decode_error -> string

  val of_json : Json.t -> (t, decode_error) result
  (** Total decode.  Unknown fields, type mismatches and out-of-range
      values are [Bad_field]; an [api_version] other than {!version} is
      [Bad_version].  Absent or [null] fields take their defaults; [cmd]
      is required. *)

  val fingerprint : t -> string
  (** The result-cache key: the canonical encoding with the fields that
      do not affect the result — [id], [deadline_ms], [priority] and
      [format] — blanked. *)
end

module Response : sig
  type error_kind = Bad_request | Unsupported_version | Overloaded | Internal

  type dse_outcome = {
    o_dataflow : Tenet_dataflow.Dataflow.t;
    o_expressible : bool;
    o_metrics : Tenet_model.Metrics.t;
  }

  type payload =
    | Metrics of {
        dataflow : Tenet_dataflow.Dataflow.t;
        metrics : Tenet_model.Metrics.t;
        forms : (string * string) list;
            (** closed forms per metric component, rendered in the
                size parameters; non-empty only when the request kept
                [params] and the template covered the size (the JSON
                encoding omits the field when empty, so param-free
                responses are byte-identical to older builds) *)
      }
    | Volumes of {
        dataflow : Tenet_dataflow.Dataflow.t;
        tensors :
          (string
          * Tenet_ir.Tensor_op.direction
          * Tenet_model.Metrics.volumes)
          list;
      }
    | Dse_result of {
        candidates : int;
        pruned : int;
        valid : int;
        outcomes : dse_outcome list;  (** best-first, truncated to [top] *)
      }
    | Stats of Json.t

  type body = {
    status : [ `Ok | `Partial | `Error ];
    payload : payload option;
    diagnostics : Tenet_analysis.Diagnostic.t list;
        (** checker findings, plus TN013 on deadline expiry *)
    error : (error_kind * string) option;
  }

  type t = {
    api_version : int;
    id : string;
    body : body;
    raw : string option;
        (** serialized body bytes replayed from the persistent cache;
            when present, {!to_json} splices them verbatim (they are
            validated on load to re-encode byte-identically) so
            warm-restart responses match the original run byte for
            byte.  [None] everywhere else. *)
  }

  val error_kind_to_string : error_kind -> string

  val error_exit_code : error_kind -> int
  (** The exit code the CLI maps each kind to: 2 for client mistakes
      ([Bad_request], [Unsupported_version]), 3 for [Overloaded], 1 for
      [Internal]. *)

  val status_to_string : [ `Ok | `Partial | `Error ] -> string
  val dataflow_json : Tenet_dataflow.Dataflow.t -> Json.t
  val payload_json : payload -> Json.t
  val body_fields : body -> (string * Json.t) list
  val to_json : t -> Json.t
  val ok_body : ?diagnostics:Tenet_analysis.Diagnostic.t list -> payload -> body

  val error_body :
    ?diagnostics:Tenet_analysis.Diagnostic.t list ->
    error_kind ->
    string ->
    body

  val error : id:string -> error_kind -> string -> t
  val is_error : t -> bool
end

val run : Request.t -> Response.t
(** Execute one request.  Never raises; see the module doc for deadline,
    error and caching semantics. *)

val decode : Json.t -> (Request.t, Response.t) result
(** Either the typed request or the ready-to-send [Bad_request] /
    [Unsupported_version] error response, with the [id] recovered from
    the raw object when possible.  The server loops decode first so
    admission control and the inline-stats fast path match on typed
    requests rather than raw JSON members. *)

(** {2 The result cache} *)

val clear_cache : unit -> unit
(** Drop both in-memory tiers: the result cache and the template cache
    (the persistent tier on disk is untouched). *)

type cache_tiers = {
  result : Cache.stats;  (** the in-memory result LRU *)
  template_entries : int;
  template_hits : int;
  template_misses : int;
  tiers_disk_dir : string option;
      (** where the persistent tier was loaded from; [None] when
          disabled *)
  disk_entries_loaded : int;
}
(** One structured view of every cache tier — the result LRU, the
    template tier and the persistent disk tier. *)

val cache_tiers : unit -> cache_tiers
val cache_tiers_json : cache_tiers -> Json.t

(** {2 The persistent tier}

    The on-disk half of the two-level result cache ({!Disk_cache}):
    load seeds the in-memory LRU with raw serialized bodies (validated
    to re-encode byte-identically; damaged entries are dropped and
    counted on [serve.disk_cache_rejected]), save exports the LRU and
    merges it with the on-disk state atomically. *)

val load_disk_cache : dir:string -> int
(** Seed the result cache from [dir]; returns accepted entries.  A
    missing or damaged cache loads as 0 — never an error. *)

val save_disk_cache : dir:string -> int
(** Export the result cache into [dir] (merge + atomic rename; see
    {!Disk_cache.merge_save}); returns the entries written.  Raises on
    I/O failure. *)

val set_extra_gauges : (unit -> (string * int) list) -> unit
(** Installed by the server loop so [stats] responses include its
    inflight gauge (and any future integer gauges) in both the JSON
    payload and the Prometheus exposition. *)

(** {2 Stats exporters}

    The two encodings behind the [stats] command, also callable
    directly (the CI scrape test and the benches use them). *)

val stats_payload : unit -> Json.t
(** The JSON stats payload: result cache, pool, queue (depth, overload
    count, queue-wait quantiles), the recent window (rates and window
    quantiles since the previous JSON scrape — absent on the first
    scrape), and the full telemetry dump.  Each call advances the
    window. *)

val prometheus_text : unit -> string
(** Prometheus text exposition (format 0.0.4) of every telemetry
    counter and histogram plus the serving gauges and result-cache
    counters.  Cumulative series only; does not advance the window. *)

(** {2 Model-input builders}

    The request-to-model translation, shared with the CLI's simulate
    command.  These raise {!Bad} on client mistakes (unknown kernel or
    architecture, wrong size count, non-positive extents); {!run} maps
    that to a [Bad_request] response. *)

exception Bad of string

val op_of : Request.t -> Tenet_ir.Tensor_op.t
val arch_of : Request.t -> Tenet_arch.Spec.t

val dataflow_of :
  Request.t -> Tenet_ir.Tensor_op.t -> Tenet_dataflow.Dataflow.t

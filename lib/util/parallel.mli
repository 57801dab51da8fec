(** Chunked, order-preserving parallel map on a persistent pool of OCaml 5
    domains.

    The parallelism degree defaults to the [TENET_JOBS] environment
    variable (1 when unset, i.e. fully sequential with no domain ever
    spawned); the CLI's [--jobs] overrides it via {!set_jobs}.  Results
    are written at their input index, so [map f l] equals [List.map f l]
    element-for-element at any job count; an exception raised by [f] is
    re-raised in the caller for the smallest failing index.  Nested calls
    (an [f] that itself maps) run sequentially — the outer call already
    owns the pool. *)

val jobs : unit -> int
(** Current parallelism degree (>= 1).  Resolved from [TENET_JOBS] on
    first use; raises [Failure] on a malformed or non-positive value. *)

val set_jobs : int -> unit
(** Override the parallelism degree.  Raises [Invalid_argument] on
    [n < 1].  Call before the first parallel [map] (the pool is sized on
    first use). *)

val parse_jobs : what:string -> string -> int
(** Strict job-count parsing shared with the CLI: positive integer or
    [Failure] with a message naming [what] was being parsed. *)

val map : ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map: [map f l] equals [List.map f l]
    element-for-element at any job count.  [chunk] (default 1) is a
    floor on how many items one pool task processes; raise it when the
    per-item work is cheap enough that scheduling overhead would
    dominate (the result is unchanged — batching only coarsens the
    scheduling grain).  Raises [Invalid_argument] on [chunk < 1]. *)

val map_array : ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array

val init : ?chunk:int -> int -> (int -> 'b) -> 'b array
(** [init n f] is [Array.init n f] with the calls distributed over the
    pool. *)

(** {2 Deadlines}

    Cooperative deadlines for long-running request pipelines (the serve
    scheduler): a token expires when its deadline passes, and pipeline
    stages poll it between stages. *)

type token

val token : ?deadline_s:float -> unit -> token
(** A fresh token; with [deadline_s] it expires that many seconds after
    creation (measured by {!now}), without it never. *)

val cancelled : token -> bool
(** Whether the token's deadline has passed. *)

val set_time_source : (unit -> float) -> unit
(** Inject a fake clock so deadline expiry is deterministic in tests. *)

(** {2 Bounded task submission}

    The serve scheduler's entry point: submit a task to the worker pool,
    refusing (backpressure) when too many submitted tasks are already
    waiting.  [map] chunks share the pool but never count against the
    bound. *)

val set_queue_limit : int -> unit
(** Bound on submitted-but-not-yet-started tasks.  Raises
    [Invalid_argument] on [n < 1].  Default: unbounded. *)

val try_submit : (unit -> unit) -> bool
(** Enqueue a task for the worker pool, spawning workers up to the
    {!jobs} degree on first use.  Returns [false] — and does nothing —
    when the waiting queue is at its limit. *)

val waiting : unit -> int
(** Submitted tasks not yet started (the queue-depth gauge). *)

val running : unit -> int
(** Submitted tasks currently executing on pool workers ([map] chunks
    are not counted).  The serving tier's "running" gauge. *)

val spawned_workers : unit -> int
(** How many worker domains the pool has spawned so far (they live for
    the rest of the process).  Tests use this to block every worker
    deterministically before exercising the overload path. *)

val set_task_wrap : ((unit -> unit) -> unit -> unit) -> unit
(** Install a hook applied (on the submitting domain, at submission
    time) to every task handed to a worker — both [map] work chunks and
    {!try_submit} tasks.  The telemetry layer uses it to carry the
    submitter's trace id into worker domains.  The wrapper must call the
    task exactly once; default is the identity. *)

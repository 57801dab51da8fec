(** The pre-fork worker fleet behind [tenet serve --workers N] and
    [tenet batch --workers N] (docs/serving.md, "Scaling out").

    [create] forks N worker processes over socketpairs, each running a
    sequential JSON-lines request loop; the parent is a single-threaded
    [select] pump, shared by {!session} and {!batch_session}, that
    dispatches each line to the least-loaded worker and collects the
    responses.  A session keeps a small window of lines per worker; a
    batch dispatches every line at once.  Forking must precede any
    domain spawn — the OCaml 5 runtime cannot fork once other domains
    exist — so fleets are created before the first parallel map;
    [create] fails with a clear message otherwise.

    Every line gets exactly one response.  The outstanding lines of a
    worker that dies are answered with an [Internal] "fleet worker
    exited mid-request" error (counted on [serve.worker_failures]) and
    the rest of the fleet keeps serving; once no worker is left, each
    further line gets "no fleet worker available".

    Workers inherit the parent's warm in-memory cache (the parent loads
    the persistent tier before forking) and persist their own cache
    slice on shutdown, merged through {!Disk_cache.merge_save}'s lock.
    The shutdown signal is fd closure, so cached work survives even a
    SIGKILL of the front end. *)

type t

val create : Config.t -> t
(** Fork [Config.workers] workers.  Must run before any domain is
    spawned; raises [Failure] with an explanatory message if the
    parallel pool already started, and [Api.Bad] before forking when a
    worker's access log ([access_log] with [.w<i>] appended) cannot be
    opened. *)

val worker_pids : t -> int list
(** The workers' process ids, in creation order (tests kill them). *)

val session : t -> in_channel -> out_channel -> unit
(** Serve one client connection through the fleet: graduated admission
    at arrival, deadline-expired shedding at dispatch under pressure,
    least-loaded dispatch with a bounded per-worker pipeline,
    completion-order responses.  [stats] requests are answered inline
    by the parent.  The client's fd is read only when it is readable
    and never made nonblocking, so a client that reads slowly only
    delays its own responses; one that hangs up loses them.  Returns
    when the client closes its input and every dispatched request has
    been answered. *)

val batch_session : t -> in_channel -> out_channel -> unit
(** Run every request line (blank and ['#'] lines skipped) through the
    fleet and print the responses in input order: byte-identical to the
    single-process batch of the same lines, since each response depends
    only on its line.  No admission control — batch is offline — and no
    per-worker window: every line is dispatched at once, spread evenly
    over the workers, so a worker that dies fails its whole share. *)

val shutdown : t -> unit
(** Close every worker's socketpair, wait for the workers to persist
    their cache slice and exit, and reap them. *)

val serve : Config.t -> in_channel -> out_channel -> unit
(** [create] + one {!session} + [shutdown]. *)

val batch : Config.t -> in_channel -> out_channel -> unit
(** [create] + one {!batch_session} + [shutdown]; a batch with no
    request lines forks no worker. *)

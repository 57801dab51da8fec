(** The configuration record for the serving tier — the single entry
    surface consumed by [Server.run]/[Server.run_batch].  See
    docs/serving.md ("Scaling out") for how each knob behaves. *)

type t = {
  queue_limit : int;
      (** bound on waiting requests; beyond it every request sheds *)
  socket : string option;  (** Unix socket path; [None] = stdin/stdout *)
  workers : int;
      (** worker processes behind the pre-fork front end; [1] serves
          in-process exactly like older builds *)
  worker_jobs : int;
      (** pool domains per worker process; [0] inherits [TENET_JOBS] *)
  cache_dir : string option;
      (** directory of the persistent result cache ({!Disk_cache});
          loaded at startup, written atomically at shutdown *)
  shed_low : int option;
      (** queue depth where low-priority and deadline-carrying work is
          shed; [None] = half the queue limit *)
  shed_normal : int option;
      (** queue depth where normal-priority work is shed; [None] = the
          queue limit itself (only the hard limit sheds, the legacy
          behavior) *)
  access_log : string option;  (** JSON-lines access log path *)
  access_log_sample : int;  (** keep every Nth access-log line *)
}

val default : t
(** The compiled-in configuration: queue 64, one in-process worker, no
    socket, no persistent cache, no access log. *)

val load : unit -> t
(** {!default} with the [TENET_SERVE_*] environment layered on top: [TENET_SERVE_QUEUE], [TENET_SERVE_WORKERS],
    [TENET_SERVE_WORKER_JOBS], [TENET_SERVE_CACHE_DIR],
    [TENET_SERVE_SHED_LOW], [TENET_SERVE_SHED_NORMAL].  Raises
    [Failure] on a malformed value. *)

val shed_low_watermark : t -> int
(** The resolved low-priority watermark: the configured value (or half
    the queue limit), clamped into [[1, queue_limit]]. *)

val shed_normal_watermark : t -> int
(** The resolved normal-priority watermark: the configured value (or
    the queue limit), clamped into [[shed_low_watermark, queue_limit]]. *)

val validate : t -> unit
(** Raises [Failure] naming the offending field on an unusable
    configuration (non-positive queue/workers/sample, bad watermark). *)

val queue_env : string
val workers_env : string
val worker_jobs_env : string
val cache_dir_env : string
val shed_low_env : string
val shed_normal_env : string

(* The one configuration surface for the serving tier (docs/serving.md).

   The serve entrypoints used to grow an optional argument per knob
   (?queue_limit, ?socket, ...); with the scale-out tier adding worker
   counts, cache directories and shed watermarks, that sprawl is folded
   into this record: [default] is the compiled-in configuration,
   [load ()] layers the TENET_SERVE_* environment on top, and the CLI
   layers its flags on top of that.  [Server.run]/[run_batch] consume
   the record.

   Watermarks are stored as options ("not configured") and resolved
   against the queue limit on use: shedding of low-priority work starts
   at half the queue by default, while the normal-priority watermark
   defaults to the queue limit itself — i.e. out of the box only the
   hard limit sheds normal traffic, exactly the legacy behavior. *)

type t = {
  queue_limit : int;  (* bound on waiting requests before shedding *)
  socket : string option;  (* Unix socket path; None = stdin/stdout *)
  workers : int;  (* worker processes; 1 = in-process serving *)
  worker_jobs : int;  (* pool domains per worker process *)
  cache_dir : string option;  (* persistent result-cache directory *)
  shed_low : int option;  (* queue depth where low-priority work sheds *)
  shed_normal : int option;  (* queue depth where normal-priority sheds *)
  access_log : string option;  (* JSON-lines access log path *)
  access_log_sample : int;  (* keep every Nth access-log line *)
}

let queue_env = "TENET_SERVE_QUEUE"
let workers_env = "TENET_SERVE_WORKERS"
let worker_jobs_env = "TENET_SERVE_WORKER_JOBS"
let cache_dir_env = "TENET_SERVE_CACHE_DIR"
let shed_low_env = "TENET_SERVE_SHED_LOW"
let shed_normal_env = "TENET_SERVE_SHED_NORMAL"

let default =
  {
    queue_limit = 64;
    socket = None;
    workers = 1;
    worker_jobs = 0;  (* 0 = inherit TENET_JOBS / the pool default *)
    cache_dir = None;
    shed_low = None;
    shed_normal = None;
    access_log = None;
    access_log_sample = 1;
  }

let env_int ~min name base =
  match Sys.getenv_opt name with
  | None | Some "" -> base
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= min -> n
      | _ ->
          failwith
            (Printf.sprintf "bad %s %S: expected an integer >= %d" name s min))

let env_int_opt ~min name base =
  match Sys.getenv_opt name with
  | None | Some "" -> base
  | Some _ -> Some (env_int ~min name 0)

let load () =
  {
    default with
    queue_limit = env_int ~min:1 queue_env default.queue_limit;
    workers = env_int ~min:1 workers_env default.workers;
    worker_jobs = env_int ~min:0 worker_jobs_env default.worker_jobs;
    cache_dir =
      (match Sys.getenv_opt cache_dir_env with
      | None | Some "" -> default.cache_dir
      | Some d -> Some d);
    shed_low = env_int_opt ~min:1 shed_low_env default.shed_low;
    shed_normal = env_int_opt ~min:1 shed_normal_env default.shed_normal;
  }

(* Resolved watermarks: clamped into [1, queue_limit] and ordered
   low <= normal, whatever the raw configuration says, so the admission
   tiers are always well-formed. *)
let shed_low_watermark (c : t) : int =
  let raw = match c.shed_low with Some n -> n | None -> c.queue_limit / 2 in
  max 1 (min raw c.queue_limit)

let shed_normal_watermark (c : t) : int =
  let raw = match c.shed_normal with Some n -> n | None -> c.queue_limit in
  max (shed_low_watermark c) (min raw c.queue_limit)

let validate (c : t) : unit =
  let bad fmt = Printf.ksprintf failwith fmt in
  if c.queue_limit < 1 then
    bad "serve config: queue_limit %d must be >= 1" c.queue_limit;
  if c.workers < 1 then bad "serve config: workers %d must be >= 1" c.workers;
  if c.worker_jobs < 0 then
    bad "serve config: worker_jobs %d must be >= 0" c.worker_jobs;
  if c.access_log_sample < 1 then
    bad "serve config: access-log sample %d must be >= 1" c.access_log_sample;
  (match c.shed_low with
  | Some n when n < 1 -> bad "serve config: shed_low %d must be >= 1" n
  | _ -> ());
  match c.shed_normal with
  | Some n when n < 1 -> bad "serve config: shed_normal %d must be >= 1" n
  | _ -> ()

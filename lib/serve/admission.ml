(* Graduated admission control for the serving tier (docs/serving.md).

   The legacy policy was binary: queue full -> `overloaded`.  The
   scale-out tier grades it by queue-depth watermarks so cheap-to-lose
   work sheds first and the hard limit is the last resort:

     depth >= queue_limit   -> shed everything      (serve.shed_hard)
     depth >= shed_normal   -> shed normal priority (serve.shed_normal)
     depth >= shed_low      -> shed low priority    (serve.shed_low)

   High-priority requests ride through every watermark and only hit the
   hard limit.  A fourth tier sheds work whose deadline already expired
   while it sat in the queue (serve.shed_expired) — running it would
   only produce a partial response the client has stopped waiting for.
   That tier applies only when the request was admitted under pressure
   (depth at or past the low watermark), so an idle server never sheds
   a deadline request that merely waited a scheduling quantum.

   Every shed also counts on the legacy serve.overloaded total (the
   response kind stays `overloaded`), so dashboards built on it keep
   reading "requests shed" whatever tier did the shedding. *)

module Obs = Tenet_obs

type priority = [ `High | `Normal | `Low ]
type reason = Hard_limit | Normal_priority | Low_priority | Expired
type verdict = Admit | Shed of reason

let c_overloaded = Obs.counter "serve.overloaded"
let c_shed_hard = Obs.counter "serve.shed_hard"
let c_shed_normal = Obs.counter "serve.shed_normal"
let c_shed_low = Obs.counter "serve.shed_low"
let c_shed_expired = Obs.counter "serve.shed_expired"

(* The watermark policy, resolved from the config on every call. *)
let decide (cfg : Config.t) ~depth ~(priority : priority) : verdict =
  if depth >= cfg.Config.queue_limit then Shed Hard_limit
  else
    match priority with
    | `High -> Admit
    | `Normal ->
        if depth >= Config.shed_normal_watermark cfg then
          Shed Normal_priority
        else Admit
    | `Low ->
        if depth >= Config.shed_low_watermark cfg then Shed Low_priority
        else Admit

let under_pressure (cfg : Config.t) ~depth =
  depth >= Config.shed_low_watermark cfg

let expired_in_queue ~(deadline_ms : int option) ~(waited_ms : float) : bool =
  match deadline_ms with
  | Some d when d > 0 -> waited_ms > float_of_int d
  | _ -> false

(* One call per shed: the tier counter plus the legacy total. *)
let note (r : reason) : unit =
  Obs.incr c_overloaded;
  Obs.incr
    (match r with
    | Hard_limit -> c_shed_hard
    | Normal_priority -> c_shed_normal
    | Low_priority -> c_shed_low
    | Expired -> c_shed_expired)

let message (cfg : Config.t) ~waited_ms (r : reason) : string =
  let queue_limit = cfg.Config.queue_limit in
  match r with
  | Hard_limit ->
      (* byte-for-byte the legacy overload message: scripts and tests
         built against the binary policy keep matching *)
      Printf.sprintf
        "work queue is full (limit %d); retry later or raise %s" queue_limit
        Config.queue_env
  | Normal_priority ->
      Printf.sprintf
        "shedding normal-priority work (queue depth >= %d of limit %d); \
         retry later"
        (Config.shed_normal_watermark cfg)
        queue_limit
  | Low_priority ->
      Printf.sprintf
        "shedding low-priority work (queue depth >= %d of limit %d); retry \
         later or raise the request priority"
        (Config.shed_low_watermark cfg)
        queue_limit
  | Expired ->
      Printf.sprintf
        "deadline expired after %.0f ms in the queue; the request was \
         dropped unstarted"
        waited_ms

(* Shed totals for the stats payload. *)
let counts () =
  [
    ("hard", Obs.value c_shed_hard);
    ("normal", Obs.value c_shed_normal);
    ("low", Obs.value c_shed_low);
    ("expired", Obs.value c_shed_expired);
  ]

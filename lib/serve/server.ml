(* The persistent analysis service and the offline batch runner.

   Both entry points are driven by one {!Config.t} record ({!run} for
   the service, {!run_batch} for the batch runner); the config layers
   TENET_SERVE_* environment overrides over compiled defaults and the
   CLI layers its flags on top, so every knob has exactly one spelling
   per layer (docs/serving.md).

   `tenet serve` reads JSON-lines requests from stdin (or a Unix
   socket).  With [workers = 1] it schedules them onto the
   Tenet_util.Parallel pool through its bounded submission queue; with
   [workers > 1] it pre-forks a {!Fleet} of worker processes and
   dispatches over socketpairs instead.  Either way:

   - Graduated admission ({!Admission}): under queue pressure,
     low-priority work sheds at the low watermark, normal work at the
     normal watermark, and everything but stats at the hard queue
     limit; deadline-expired requests admitted under pressure shed at
     dispatch.  Every shed is a real [overloaded] response — requests
     already in flight keep running.
   - Admin traffic: `stats` requests are answered inline by the reader,
     bypassing the queue, so the service can be observed even while
     saturated.
   - Responses are written in completion order, one JSON line each;
     clients correlate them by `id`.
   - With [cache_dir] set, the persistent result cache is loaded before
     serving (pre-fork, so fleet workers inherit it warm) and merged
     back on session end.

   `batch` is the deterministic offline variant: it reads every request
   line, evaluates them with the order-preserving Parallel.map or
   across the fleet, and prints responses in input order.  Each
   response depends only on its line, so a batch at any --jobs or
   --workers count produces the byte-identical output of the same
   requests run one-shot. *)

module Obs = Tenet_obs
module Parallel = Tenet_util.Parallel
module Config = Config

(* Same cell as the one [Api.stats_payload] reports quantiles for. *)
let h_queue_wait = Obs.histogram "serve.queue_wait"

(* Entry behaviour shared by every runner.

   OCaml's default SIGPIPE disposition terminates the whole process, so
   without ignoring it a client that disconnects while a response is
   being written would kill the persistent server.  Ignoring the signal
   makes broken-pipe writes surface as catchable [Sys_error] /
   [Unix_error] instead (the handlers around the serve loops rely on
   this).  Windows has no SIGPIPE; [set_signal] raising there is
   harmless.

   Telemetry is always on for the runners: responses never embed it
   (stats is pull-only), recording is bounded (span ring buffer), and a
   batch/serve process without it cannot be observed at all. *)
let enter () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  if not (Obs.enabled ()) then Obs.enable ()

(* Load the persistent tier, if configured.  Damaged or missing caches
   load as empty; only a malformed directory path is a real error. *)
let load_persistent (cfg : Config.t) : unit =
  match cfg.Config.cache_dir with
  | Some dir -> ignore (Api.load_disk_cache ~dir)
  | None -> ()

(* Merge the in-memory result cache back to disk.  Persistence must
   never take the service down, so I/O failures are swallowed here (the
   entries survive in memory; the next save retries). *)
let save_persistent (cfg : Config.t) : unit =
  match cfg.Config.cache_dir with
  | Some dir -> (
      try ignore (Api.save_disk_cache ~dir)
      with Sys_error _ | Unix.Unix_error _ | Failure _ -> ())
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Batch.                                                              *)
(* ------------------------------------------------------------------ *)

let batch_single (ic : in_channel) (oc : out_channel) : unit =
  let responses =
    Parallel.map Protocol.handle_line (Protocol.read_requests ic)
  in
  List.iter
    (fun resp ->
      output_string oc (Protocol.response_line resp);
      output_char oc '\n')
    responses;
  flush oc

let run_batch (cfg : Config.t) (ic : in_channel) (oc : out_channel) : unit =
  Config.validate cfg;
  enter ();
  load_persistent cfg;
  if cfg.Config.workers > 1 then
    (* forks: must come before any domain spawn, hence before any
       single-process Parallel.map in this process *)
    Fleet.batch cfg ic oc
  else begin
    batch_single ic oc;
    save_persistent cfg
  end

(* ------------------------------------------------------------------ *)
(* Serve.                                                              *)
(* ------------------------------------------------------------------ *)

(* The in-process session (workers = 1): requests go straight onto the
   domain pool's bounded queue; admission reads the pool's waiting
   count as its depth. *)
let session (cfg : Config.t) (ic : in_channel) (oc : out_channel) : unit =
  enter ();
  Parallel.set_queue_limit cfg.Config.queue_limit;
  let write_mutex = Mutex.create () in
  (* Set once the client has gone (a failed read or write): every
     response still due is dropped from then on. *)
  let gone = Atomic.make false in
  let respond resp =
    (* [Fun.protect]: the mutex is released whatever the write does, or
       every other in-flight responder would deadlock. *)
    Mutex.lock write_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock write_mutex)
      (fun () ->
        if not (Atomic.get gone) then
          try
            output_string oc (Protocol.response_line resp);
            output_char oc '\n';
            flush oc
          with Sys_error _ -> Atomic.set gone true)
  in
  (* Inflight accounting: every exit from the read loop drains before
     returning, so a piped client sees every response, and no task
     outlives the session to write into a socket fd that the next
     accepted client may reuse. *)
  let inflight = ref 0 in
  let inflight_mutex = Mutex.create () in
  let inflight_cv = Condition.create () in
  let incr_inflight () =
    Mutex.lock inflight_mutex;
    incr inflight;
    Mutex.unlock inflight_mutex
  in
  let decr_inflight () =
    Mutex.lock inflight_mutex;
    decr inflight;
    Condition.broadcast inflight_cv;
    Mutex.unlock inflight_mutex
  in
  let drain () =
    Mutex.lock inflight_mutex;
    while !inflight > 0 do
      Condition.wait inflight_cv inflight_mutex
    done;
    Mutex.unlock inflight_mutex
  in
  Api.set_extra_gauges (fun () -> [ ("inflight", !inflight) ]);
  let shed reason ~id ~waited_ms =
    Admission.note reason;
    respond
      (Api.Response.error ~id Api.Response.Overloaded
         (Admission.message cfg ~waited_ms reason))
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | exception Sys_error _ -> Atomic.set gone true
    | _ when Atomic.get gone -> ()
    | line when Protocol.is_comment line -> loop ()
    | line ->
        (match Protocol.parse_request line with
        | Error resp -> respond resp
        | Ok req when req.Api.Request.cmd = Api.Request.Stats ->
            (* answered inline: observable even while saturated *)
            respond (Api.run req)
        | Ok req -> (
            let depth = Parallel.waiting () in
            match
              Admission.decide cfg ~depth ~priority:req.Api.Request.priority
            with
            | Admission.Shed reason ->
                shed reason ~id:req.Api.Request.id ~waited_ms:0.
            | Admission.Admit ->
                incr_inflight ();
                let submitted = Obs.now () in
                (* pressure is judged at admission: a request that got
                   in under a calm queue keeps its deadline semantics
                   (TN013 partial response), one admitted under
                   pressure may shed at dispatch instead *)
                let pressure = Admission.under_pressure cfg ~depth in
                let task () =
                  (* Queue wait: submission to start of execution.
                     Stashed for the access log before the request runs
                     on this domain. *)
                  let wait_s = Obs.now () -. submitted in
                  Obs.observe_h h_queue_wait wait_s;
                  Access_log.stash_queue_wait_ms (1e3 *. wait_s);
                  Fun.protect ~finally:decr_inflight (fun () ->
                      let waited_ms = 1e3 *. wait_s in
                      if
                        pressure
                        && Admission.expired_in_queue
                             ~deadline_ms:req.Api.Request.deadline_ms
                             ~waited_ms
                      then
                        shed Admission.Expired ~id:req.Api.Request.id
                          ~waited_ms
                      else respond (Api.run req))
                in
                if not (Parallel.try_submit task) then begin
                  (* raced with other submitters between the depth read
                     and the submit: the hard limit still holds *)
                  decr_inflight ();
                  shed Admission.Hard_limit ~id:req.Api.Request.id
                    ~waited_ms:0.
                end));
        loop ()
  in
  Fun.protect ~finally:drain loop

let run (cfg : Config.t) : unit =
  Config.validate cfg;
  enter ();
  (match cfg.Config.access_log with
  | Some path when cfg.Config.workers = 1 ->
      (* fleet workers configure their own per-process sinks *)
      Access_log.configure ~sample:cfg.Config.access_log_sample path
  | Some _ | None -> ());
  load_persistent cfg;
  match cfg.Config.socket with
  | None ->
      if cfg.Config.workers > 1 then Fleet.serve cfg stdin stdout
      else begin
        session cfg stdin stdout;
        save_persistent cfg
      end
  | Some path ->
      (* The fleet outlives connections: fork once, before the first
         accept, and reuse the workers across sessions. *)
      let fleet =
        if cfg.Config.workers > 1 then Some (Fleet.create cfg) else None
      in
      let serve_client ic oc =
        match fleet with
        | Some t -> Fleet.session t ic oc
        | None ->
            session cfg ic oc;
            save_persistent cfg
      in
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close sock with Unix.Unix_error _ -> ());
          (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
          match fleet with Some t -> Fleet.shutdown t | None -> ())
        (fun () ->
          (* one connection at a time: each client gets the full
             JSON-lines session; the next accept begins when it
             disconnects *)
          let rec accept_loop () =
            let fd, _ = Unix.accept sock in
            let ic = Unix.in_channel_of_descr fd in
            let oc = Unix.out_channel_of_descr fd in
            (try serve_client ic oc with End_of_file | Sys_error _ -> ());
            (try Unix.close fd with Unix.Unix_error _ -> ());
            accept_loop ()
          in
          accept_loop ())

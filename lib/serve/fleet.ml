(* The pre-fork worker fleet: the scale-out serving tier's front end
   (docs/serving.md, "Scaling out").

   [create] forks [Config.workers] worker processes, each holding one
   end of a socketpair and running a sequential JSON-lines loop (read a
   request line, [Protocol.handle_line], write the response line).  The
   parent is a single-threaded [Unix.select] event loop that never
   touches the domain pool — it parses, admits and dispatches; all
   model work happens in the children.

   Forking must happen before any domain is spawned: the OCaml 5
   runtime refuses [Unix.fork] once other domains exist.  [create]
   checks and fails with a message naming the constraint.  Because the
   parent loads the persistent cache *before* forking, every worker
   inherits the warm in-memory cache for free.

   Two dispatch shapes:

   - [batch]: requests are assigned round-robin by input index, so
     worker [w]'s [k]-th response is global response [k*N + w] — the
     reassembled output is in input order and byte-identical to the
     single-process batch of the same lines (the golden transcript is
     diffed against a multi-worker run in CI).  No admission control:
     batch is offline, nothing sheds.

   - [session]: the serving loop.  Client lines are admitted through
     the graduated watermarks ({!Admission}), queue in the parent, and
     are dispatched to the least-loaded worker with a small pipeline
     window per worker (enough to hide the socketpair round-trip, small
     enough that deadline-expired shedding still sees the queue).
     Responses are forwarded in completion order, like the in-process
     server.  [stats] is answered inline by the parent, so the fleet
     stays observable while every worker is busy.

   A worker that dies mid-request surfaces as an [Internal] error
   response for each of its outstanding requests (counted on
   [serve.worker_failures]); the fleet keeps serving on the survivors.
   At shutdown the parent half-closes every socketpair; workers see
   EOF, persist their cache slice ({!Api.save_disk_cache}, merged
   across workers through the lock file) and exit.  A parent killed
   outright has the same effect — fd closure is the shutdown signal,
   so even SIGKILL on the front end loses no cached work. *)

module Obs = Tenet_obs
module Parallel = Tenet_util.Parallel

let c_worker_failures = Obs.counter "serve.worker_failures"

(* Per-worker dispatch window in [session] mode: deep enough to hide
   the socketpair round-trip behind compute, shallow enough that load
   stays visible in the parent's queue for the admission watermarks. *)
let pipeline_depth = 4

type worker = {
  w_pid : int;
  w_fd : Unix.file_descr; (* parent's end of the socketpair *)
  mutable w_inflight : int; (* session mode: dispatched, unanswered *)
  w_outstanding : string Queue.t; (* their request ids, dispatch order *)
  w_rbuf : Buffer.t; (* partial response line *)
  mutable w_alive : bool;
}

type t = { f_cfg : Config.t; f_workers : worker array }

let check_forkable () =
  if Parallel.spawned_workers () > 0 then
    failwith
      "serve fleet: worker processes must be forked before any parallel \
       work runs (the OCaml runtime cannot fork once domains have been \
       spawned); start the fleet first"

(* The child side: a sequential request loop on the inherited fd.  EOF
   from the parent is the shutdown signal — persist the cache slice,
   then exit.  Never returns. *)
let worker_main (cfg : Config.t) (idx : int) (fd : Unix.file_descr) : 'a =
  let status = ref 0 in
  (try
     (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
      with Invalid_argument _ | Sys_error _ -> ());
     if cfg.Config.worker_jobs > 0 then
       Parallel.set_jobs cfg.Config.worker_jobs;
     if not (Obs.enabled ()) then Obs.enable ();
     (match cfg.Config.access_log with
     | Some path ->
         (* one sink per worker — concurrent appends from sibling
            processes would interleave partial lines *)
         Access_log.configure ~sample:cfg.Config.access_log_sample
           (Printf.sprintf "%s.w%d" path idx)
     | None -> ());
     let ic = Unix.in_channel_of_descr fd in
     let oc = Unix.out_channel_of_descr fd in
     (try
        let rec loop () =
          match input_line ic with
          | exception End_of_file -> ()
          | line when Protocol.is_comment line -> loop ()
          | line ->
              let resp = Protocol.handle_line line in
              output_string oc (Protocol.response_line resp);
              output_char oc '\n';
              flush oc;
              loop ()
        in
        loop ()
      with Sys_error _ -> ());
     (match cfg.Config.cache_dir with
     | Some dir -> (
         try ignore (Api.save_disk_cache ~dir)
         with Sys_error _ | Unix.Unix_error _ -> ())
     | None -> ());
     Access_log.disable ()
   with e ->
     prerr_endline ("tenet fleet worker: " ^ Printexc.to_string e);
     status := 1);
  exit !status

let create (cfg : Config.t) : t =
  check_forkable ();
  (* Buffered output copied into children would be flushed twice. *)
  flush stdout;
  flush stderr;
  let earlier_parent_fds = ref [] in
  let workers =
    Array.make cfg.Config.workers
      {
        w_pid = 0;
        w_fd = Unix.stdin;
        w_inflight = 0;
        w_outstanding = Queue.create ();
        w_rbuf = Buffer.create 64;
        w_alive = false;
      }
  in
  for i = 0 to cfg.Config.workers - 1 do
    let parent_fd, child_fd =
      Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
    in
    match Unix.fork () with
    | 0 ->
        (try Unix.close parent_fd with Unix.Unix_error _ -> ());
        (* inherited parent ends of earlier siblings: close them or
           their EOF (the shutdown signal) would never arrive *)
        List.iter
          (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          !earlier_parent_fds;
        worker_main cfg i child_fd
    | pid ->
        (try Unix.close child_fd with Unix.Unix_error _ -> ());
        earlier_parent_fds := parent_fd :: !earlier_parent_fds;
        workers.(i) <-
          {
            w_pid = pid;
            w_fd = parent_fd;
            w_inflight = 0;
            w_outstanding = Queue.create ();
            w_rbuf = Buffer.create 4096;
            w_alive = true;
          }
  done;
  { f_cfg = cfg; f_workers = workers }

let shutdown (t : t) : unit =
  Array.iter
    (fun w ->
      try Unix.shutdown w.w_fd Unix.SHUTDOWN_SEND
      with Unix.Unix_error _ -> ())
    t.f_workers;
  (* Drain to EOF so a worker blocked writing a response can finish,
     then reap.  The draining also waits out the workers' cache
     persistence (they write the disk cache after their loop ends). *)
  Array.iter
    (fun w ->
      (try
         let buf = Bytes.create 4096 in
         let rec drain () = if Unix.read w.w_fd buf 0 4096 > 0 then drain () in
         drain ()
       with Unix.Unix_error _ -> ());
      (try Unix.close w.w_fd with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ())
    t.f_workers

let rec select_retry rds wrs timeout =
  match Unix.select rds wrs [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      select_retry rds wrs timeout
  | r -> r

(* ------------------------------------------------------------------ *)
(* Batch: round-robin fan-out, index-ordered reassembly.               *)
(* ------------------------------------------------------------------ *)

let batch (cfg : Config.t) (ic : in_channel) (oc : out_channel) : unit =
  let lines = Protocol.read_requests ic in
  let n = List.length lines in
  if n = 0 then flush oc
  else begin
    let t = create cfg in
    let ws = t.f_workers in
    let nw = Array.length ws in
    (* line i -> worker (i mod nw), so worker w's k-th response is
       global response k*nw + w: reassembly is pure arithmetic *)
    let payload = Array.init nw (fun _ -> Buffer.create 4096) in
    let expected = Array.make nw 0 in
    List.iteri
      (fun i line ->
        let w = i mod nw in
        Buffer.add_string payload.(w) line;
        Buffer.add_char payload.(w) '\n';
        expected.(w) <- expected.(w) + 1)
      lines;
    let send = Array.map Buffer.contents payload in
    let sent = Array.make nw 0 in
    let shut = Array.make nw false in
    let received = Array.make nw 0 in
    let responses = Array.make n "" in
    Array.iter (fun w -> Unix.set_nonblock w.w_fd) ws;
    let half_close w =
      if not shut.(w) then begin
        (try Unix.shutdown ws.(w).w_fd Unix.SHUTDOWN_SEND
         with Unix.Unix_error _ -> ());
        shut.(w) <- true
      end
    in
    Array.iteri (fun w s -> if s = "" then half_close w) send;
    let fd_index fd =
      let rec find i = if ws.(i).w_fd == fd then i else find (i + 1) in
      find 0
    in
    let finished () =
      let ok = ref true in
      Array.iteri (fun w r -> if r < expected.(w) then ok := false) received;
      !ok
    in
    (* Interleave writes and reads through select: writing every
       request first would deadlock once both socketpair buffers fill
       (the worker blocks writing responses nobody reads, and stops
       reading requests). *)
    while not (finished ()) do
      let rds =
        Array.to_list ws
        |> List.filteri (fun w _ -> received.(w) < expected.(w))
        |> List.map (fun w -> w.w_fd)
      in
      let wrs =
        Array.to_list ws
        |> List.filteri (fun w _ -> sent.(w) < String.length send.(w))
        |> List.map (fun w -> w.w_fd)
      in
      let rs, wsel, _ = select_retry rds wrs (-1.0) in
      List.iter
        (fun fd ->
          let w = fd_index fd in
          let s = send.(w) in
          (match
             Unix.write_substring fd s sent.(w) (String.length s - sent.(w))
           with
          | k -> sent.(w) <- sent.(w) + k
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              ()
          | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
              failwith "serve fleet: a batch worker died mid-batch");
          if sent.(w) = String.length s then half_close w)
        wsel;
      List.iter
        (fun fd ->
          let w = fd_index fd in
          let buf = Bytes.create 65536 in
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 ->
              if received.(w) < expected.(w) then
                failwith
                  (Printf.sprintf
                     "serve fleet: batch worker %d exited after %d of %d \
                      responses"
                     w received.(w) expected.(w))
          | k ->
              Buffer.add_subbytes ws.(w).w_rbuf buf 0 k;
              List.iter
                (fun line ->
                  responses.((received.(w) * nw) + w) <- line;
                  received.(w) <- received.(w) + 1)
                (Protocol.drain_lines ws.(w).w_rbuf)
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              ())
        rs;
      (* a worker with nothing left to say may have died: detected by
         the 0-byte read above on its next readable event *)
      ignore rs
    done;
    Array.iter
      (fun w ->
        (try Unix.close w.w_fd with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ())
      ws;
    Array.iter
      (fun line ->
        output_string oc line;
        output_char oc '\n')
      responses;
    flush oc
  end

(* ------------------------------------------------------------------ *)
(* Session: the serving loop.                                          *)
(* ------------------------------------------------------------------ *)

type pending = {
  p_line : string;
  p_req : Api.Request.t;
  p_enqueued : float;
  p_pressure : bool; (* admitted at or past the low watermark *)
}

let total_inflight ws = Array.fold_left (fun a w -> a + w.w_inflight) 0 ws

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let session (t : t) (ic : in_channel) (oc : out_channel) : unit =
  let cfg = t.f_cfg in
  let ws = t.f_workers in
  let pending : pending Queue.t = Queue.create () in
  let cin = Unix.descr_of_in_channel ic in
  let client_eof = ref false in
  let client_buf = Buffer.create 4096 in
  let respond_line line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  let respond resp = respond_line (Protocol.response_line resp) in
  Api.set_extra_gauges (fun () ->
      [
        ("workers", Array.length ws);
        ( "workers_alive",
          Array.fold_left (fun a w -> if w.w_alive then a + 1 else a) 0 ws );
        ("fleet_pending", Queue.length pending);
        ("fleet_inflight", total_inflight ws);
      ]);
  let shed reason ~id ~waited_ms =
    Admission.note reason;
    respond
      (Api.Response.error ~id Api.Response.Overloaded
         (Admission.message cfg ~waited_ms reason))
  in
  (* Fail a dead worker's outstanding requests: the client gets a real
     response for each (never silence), the fleet keeps serving. *)
  let bury w =
    if w.w_alive then begin
      w.w_alive <- false;
      Queue.iter
        (fun id ->
          Obs.incr c_worker_failures;
          respond
            (Api.Response.error ~id Api.Response.Internal
               "fleet worker exited mid-request"))
        w.w_outstanding;
      Queue.clear w.w_outstanding;
      w.w_inflight <- 0;
      try Unix.close w.w_fd with Unix.Unix_error _ -> ()
    end
  in
  let capacity () =
    Array.exists (fun w -> w.w_alive && w.w_inflight < pipeline_depth) ws
  in
  let rec dispatch_one (p : pending) =
    let waited_ms = 1e3 *. (Obs.now () -. p.p_enqueued) in
    if
      p.p_pressure
      && Admission.expired_in_queue
           ~deadline_ms:p.p_req.Api.Request.deadline_ms ~waited_ms
    then shed Admission.Expired ~id:p.p_req.Api.Request.id ~waited_ms
    else begin
      let best = ref None in
      Array.iter
        (fun w ->
          if w.w_alive && w.w_inflight < pipeline_depth then
            match !best with
            | Some b when b.w_inflight <= w.w_inflight -> ()
            | _ -> best := Some w)
        ws;
      match !best with
      | None -> assert false (* caller checked [capacity] *)
      | Some w -> (
          match write_all w.w_fd (p.p_line ^ "\n") with
          | () ->
              w.w_inflight <- w.w_inflight + 1;
              Queue.push p.p_req.Api.Request.id w.w_outstanding
          | exception Unix.Unix_error _ ->
              bury w;
              if capacity () then dispatch_one p
              else
                respond
                  (Api.Response.error ~id:p.p_req.Api.Request.id
                     Api.Response.Internal "no fleet worker available"))
    end
  in
  let pump () =
    while (not (Queue.is_empty pending)) && capacity () do
      dispatch_one (Queue.pop pending)
    done
  in
  let handle_client_line line =
    if not (Protocol.is_comment line) then
      match Protocol.parse_request line with
      | Error resp -> respond resp
      | Ok req when req.Api.Request.cmd = Api.Request.Stats ->
          (* inline on the front end: observable while saturated *)
          respond (Api.run req)
      | Ok req -> (
          let depth = Queue.length pending in
          match
            Admission.decide cfg ~depth ~priority:req.Api.Request.priority
          with
          | Admission.Shed reason ->
              shed reason ~id:req.Api.Request.id ~waited_ms:0.
          | Admission.Admit ->
              Queue.push
                {
                  p_line = line;
                  p_req = req;
                  p_enqueued = Obs.now ();
                  p_pressure = Admission.under_pressure cfg ~depth;
                }
                pending)
  in
  Unix.set_nonblock cin;
  Fun.protect
    ~finally:(fun () ->
      try Unix.clear_nonblock cin with Unix.Unix_error _ -> ())
  @@ fun () ->
  let chunk = Bytes.create 65536 in
  let rec loop () =
    pump ();
    if !client_eof && Queue.is_empty pending && total_inflight ws = 0 then ()
    else if not (Array.exists (fun w -> w.w_alive) ws) then begin
      (* every worker is gone: answer what is queued, then stop *)
      Queue.iter
        (fun p ->
          respond
            (Api.Response.error ~id:p.p_req.Api.Request.id
               Api.Response.Internal "no fleet worker available"))
        pending;
      Queue.clear pending
    end
    else begin
      let rds =
        (if !client_eof then [] else [ cin ])
        @ (Array.to_list ws
          |> List.filter (fun w -> w.w_alive && w.w_inflight > 0)
          |> List.map (fun w -> w.w_fd))
      in
      if rds = [] then () (* client done, nothing in flight *)
      else begin
        let rs, _, _ = select_retry rds [] (-1.0) in
        List.iter
          (fun fd ->
            if fd == cin then (
              match Unix.read cin chunk 0 (Bytes.length chunk) with
              | 0 -> client_eof := true
              | k ->
                  Buffer.add_subbytes client_buf chunk 0 k;
                  List.iter handle_client_line (Protocol.drain_lines client_buf)
              | exception
                  Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                  ())
            else
              let w =
                let found = ref None in
                Array.iter
                  (fun w -> if w.w_alive && w.w_fd == fd then found := Some w)
                  ws;
                !found
              in
              match w with
              | None -> ()
              | Some w -> (
                  match Unix.read fd chunk 0 (Bytes.length chunk) with
                  | 0 -> bury w
                  | k ->
                      Buffer.add_subbytes w.w_rbuf chunk 0 k;
                      List.iter
                        (fun line ->
                          (* per-worker completion order is dispatch
                             order: the worker loop is sequential *)
                          ignore (Queue.pop w.w_outstanding);
                          w.w_inflight <- w.w_inflight - 1;
                          respond_line line)
                        (Protocol.drain_lines w.w_rbuf)
                  | exception
                      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
                    ->
                      ()))
          rs;
        loop ()
      end
    end
  in
  loop ()

let serve (cfg : Config.t) (ic : in_channel) (oc : out_channel) : unit =
  let t = create cfg in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> session t ic oc)

(* The pre-fork worker fleet: the scale-out serving tier's front end
   (docs/serving.md, "Scaling out").

   [create] forks [Config.workers] worker processes, each holding one
   end of a socketpair and running a sequential JSON-lines loop (read a
   request line, [Protocol.handle_line], write the response line).  The
   parent is a single-threaded [Unix.select] pump that never touches
   the domain pool — it parses, admits and dispatches; all model work
   happens in the children.

   Forking must happen before any domain is spawned: the OCaml 5
   runtime refuses [Unix.fork] once other domains exist.  [create]
   checks and fails with a message naming the constraint.  Because the
   parent loads the persistent cache *before* forking, every worker
   inherits the warm in-memory cache for free.

   One pump drives the workers for both entry points.  A request line
   goes to the least-loaded live worker, up to a per-worker window of
   outstanding lines, through a per-worker buffer drained by
   nonblocking writes: a worker busy writing a long response never
   stalls the parent, which keeps reading it.  Each worker's
   outstanding lines queue in dispatch order, the order its sequential
   loop answers them.

   - [batch]: every input line is a slot, and responses print in slot
     order.  A response depends only on its line, so the output is
     byte-identical to the single-process batch of the same lines (the
     golden transcript is diffed against a multi-worker run in CI).  No
     admission control: batch is offline, nothing sheds.  No window
     either: every line is dispatched at once, spread evenly over the
     workers, so a worker never waits on the parent for its next line.
     A worker that dies takes its whole share with it.

   - [session]: the serving loop.  Client lines pass the graduated
     watermarks ({!Admission}) and queue in the parent; the window of
     [pipeline_depth] lines per worker hides the socketpair round-trip
     but leaves the backlog in that queue, where deadline-expired
     shedding sees it.
     Responses are forwarded in completion order, like the in-process
     server.  [stats] is answered inline by the parent, so the fleet
     stays observable while every worker is busy.  The client fd is
     read only once [select] reports it readable and is never made
     nonblocking: over a socket, responses go out on the same fd, and a
     client that reads slowly must only slow down its own responses.

   Every line gets exactly one response.  The outstanding lines of a
   worker that dies get an [Internal] "fleet worker exited mid-request"
   error (counted on [serve.worker_failures]) and the fleet keeps
   serving on the survivors; once none is left, each further line gets
   "no fleet worker available".  At shutdown the parent closes every
   socketpair; workers see EOF, persist their cache slice
   ({!Api.save_disk_cache}, merged across workers through the lock
   file) and exit.  A parent killed outright has the same effect — fd
   closure is the shutdown signal, so even SIGKILL on the front end
   loses no cached work. *)

module Obs = Tenet_obs
module Parallel = Tenet_util.Parallel

let c_worker_failures = Obs.counter "serve.worker_failures"

(* The session's per-worker dispatch window: deep enough to hide the
   socketpair round-trip behind compute, shallow enough that load stays
   visible in the parent's queue for the admission watermarks. *)
let pipeline_depth = 4

type worker = {
  w_pid : int;
  w_fd : Unix.file_descr; (* parent's end of the socketpair, nonblocking *)
  w_wbuf : Buffer.t; (* request lines dispatched since [w_out] was taken *)
  mutable w_out : string; (* request lines being written *)
  mutable w_off : int; (* bytes of [w_out] already written *)
  w_rbuf : Buffer.t; (* partial response line *)
  w_outstanding : (int * string) Queue.t; (* (slot, line), dispatch order *)
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
  let spawn i =
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
        Unix.set_nonblock parent_fd;
        {
          w_pid = pid;
          w_fd = parent_fd;
          w_wbuf = Buffer.create 4096;
          w_out = "";
          w_off = 0;
          w_rbuf = Buffer.create 4096;
          w_outstanding = Queue.create ();
          w_alive = true;
        }
  in
  { f_cfg = cfg; f_workers = Array.init cfg.Config.workers spawn }

let worker_pids (t : t) : int list =
  Array.to_list (Array.map (fun w -> w.w_pid) t.f_workers)

(* Closing a worker's socket is its shutdown signal: it reads EOF (or
   fails the write of a response nobody wants), persists its cache
   slice and exits, which [waitpid] waits out.  Buried workers were
   closed already and are only reaped. *)
let shutdown (t : t) : unit =
  Array.iter
    (fun w ->
      if w.w_alive then begin
        w.w_alive <- false;
        try Unix.close w.w_fd with Unix.Unix_error _ -> ()
      end)
    t.f_workers;
  Array.iter
    (fun w -> try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ())
    t.f_workers

let rec select_retry rds wrs =
  match Unix.select rds wrs [] (-1.0) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_retry rds wrs
  | r -> r

(* A failure response for [line], echoing the id its own decode
   recovers. *)
let failure_line line msg =
  let id =
    match Protocol.parse_request line with
    | Ok req -> req.Api.Request.id
    | Error resp -> resp.Api.Response.id
  in
  Protocol.response_line (Api.Response.error ~id Api.Response.Internal msg)

(* The one event loop behind [batch] and [session].  [next ()] yields
   the next [(slot, line)] to dispatch, or [None] when nothing waits;
   [respond slot response_line] delivers each line's one response.
   Each live worker holds at most [depth] outstanding lines.  With
   [client], the loop also reads that fd, only once [select] reports it
   readable, and hands each complete line to the handler.  Returns once
   the client is at EOF (at once without one) and every dispatched line
   has been answered. *)
let pump (t : t) ~depth ?client ~next ~respond () : unit =
  let ws = t.f_workers in
  let chunk = Bytes.create 65536 in
  let least_loaded () =
    Array.fold_left
      (fun best w ->
        let load = Queue.length w.w_outstanding in
        if (not w.w_alive) || load >= depth then best
        else
          match best with
          | Some b when Queue.length b.w_outstanding <= load -> best
          | _ -> Some w)
      None ws
  in
  let rec dispatch () =
    match least_loaded () with
    | None when Array.exists (fun w -> w.w_alive) ws -> () (* all full *)
    | target -> (
        match next () with
        | None -> ()
        | Some (slot, line) ->
            (match target with
            | Some w ->
                Buffer.add_string w.w_wbuf line;
                Buffer.add_char w.w_wbuf '\n';
                Queue.push (slot, line) w.w_outstanding
            | None ->
                respond slot (failure_line line "no fleet worker available"));
            dispatch ())
  in
  let unwritten w =
    w.w_off < String.length w.w_out || Buffer.length w.w_wbuf > 0
  in
  (* Once [w_out] is written, the lines dispatched meanwhile take its
     place: every byte is copied and written once.  Write errors are
     left to the read side: a worker whose socket refuses writes has
     exited, and its end then reads as EOF. *)
  let write_worker w =
    if w.w_off = String.length w.w_out then begin
      w.w_out <- Buffer.contents w.w_wbuf;
      w.w_off <- 0;
      Buffer.clear w.w_wbuf
    end;
    match
      Unix.write_substring w.w_fd w.w_out w.w_off
        (String.length w.w_out - w.w_off)
    with
    | k -> w.w_off <- w.w_off + k
    | exception Unix.Unix_error _ -> ()
  in
  let bury w =
    w.w_alive <- false;
    (try Unix.close w.w_fd with Unix.Unix_error _ -> ());
    Queue.iter
      (fun (slot, line) ->
        Obs.incr c_worker_failures;
        respond slot (failure_line line "fleet worker exited mid-request"))
      w.w_outstanding;
    Queue.clear w.w_outstanding;
    Buffer.clear w.w_wbuf;
    w.w_out <- "";
    w.w_off <- 0
  in
  let read_worker w =
    match Unix.read w.w_fd chunk 0 (Bytes.length chunk) with
    | 0 -> bury w
    | k ->
        Buffer.add_subbytes w.w_rbuf chunk 0 k;
        List.iter
          (fun response ->
            let slot, _ = Queue.pop w.w_outstanding in
            respond slot response)
          (Protocol.drain_lines w.w_rbuf)
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error _ -> bury w
  in
  let client = ref client in
  let client_buf = Buffer.create 4096 in
  (* A line at a time, dispatching in between: the admission depth is
     the real backlog, and with no worker left each line is answered
     before the next is admitted. *)
  let read_client fd on_line =
    let lines =
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      | k when k > 0 ->
          Buffer.add_subbytes client_buf chunk 0 k;
          Protocol.drain_lines client_buf
      | _ | (exception Unix.Unix_error _) ->
          (* EOF; an unterminated last line still counts, as it does
             for [input_line] *)
          client := None;
          if Buffer.length client_buf > 0 then [ Buffer.contents client_buf ]
          else []
    in
    List.iter
      (fun line ->
        on_line line;
        dispatch ())
      lines
  in
  let rec loop () =
    dispatch ();
    let busy =
      List.filter
        (fun w -> not (Queue.is_empty w.w_outstanding))
        (Array.to_list ws)
    in
    if Option.is_some !client || busy <> [] then begin
      let rds =
        Option.fold ~none:[] ~some:(fun (fd, _) -> [ fd ]) !client
        @ List.map (fun w -> w.w_fd) busy
      in
      let wrs =
        List.filter_map
          (fun w -> if unwritten w then Some w.w_fd else None)
          busy
      in
      let readable, writable, _ = select_retry rds wrs in
      let worker_of fd =
        List.find_opt (fun w -> w.w_alive && w.w_fd == fd) busy
      in
      List.iter (fun fd -> Option.iter write_worker (worker_of fd)) writable;
      List.iter
        (fun fd ->
          match !client with
          | Some (cfd, on_line) when fd == cfd -> read_client cfd on_line
          | _ -> Option.iter read_worker (worker_of fd))
        readable;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Batch: every line a slot, responses in slot order.                  *)
(* ------------------------------------------------------------------ *)

let batch_lines (t : t) (lines : string list) (oc : out_channel) : unit =
  let jobs = Queue.of_seq (Seq.zip (Seq.ints 0) (List.to_seq lines)) in
  let responses = Array.make (Queue.length jobs) "" in
  pump t ~depth:max_int (* see the header: no window *)
    ~next:(fun () -> Queue.take_opt jobs)
    ~respond:(fun slot line -> responses.(slot) <- line)
    ();
  Array.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    responses;
  flush oc

let batch_session t ic oc = batch_lines t (Protocol.read_requests ic) oc

(* ------------------------------------------------------------------ *)
(* Session: the serving loop.                                          *)
(* ------------------------------------------------------------------ *)

type pending = {
  p_line : string;
  p_req : Api.Request.t;
  p_enqueued : float;
  p_pressure : bool; (* admitted at or past the low watermark *)
}

let session (t : t) (ic : in_channel) (oc : out_channel) : unit =
  let cfg = t.f_cfg in
  let ws = t.f_workers in
  let pending : pending Queue.t = Queue.create () in
  (* A client that hangs up loses only its own responses: the pump
     still collects every outstanding one, so the fleet is clean for
     the next session. *)
  let connected = ref true in
  let respond_line line =
    if !connected then
      try
        output_string oc line;
        output_char oc '\n';
        flush oc
      with Sys_error _ -> connected := false
  in
  let respond resp = respond_line (Protocol.response_line resp) in
  Api.set_extra_gauges (fun () ->
      [
        ("workers", Array.length ws);
        ( "workers_alive",
          Array.fold_left (fun a w -> if w.w_alive then a + 1 else a) 0 ws );
        ("fleet_pending", Queue.length pending);
        ( "fleet_inflight",
          Array.fold_left (fun a w -> a + Queue.length w.w_outstanding) 0 ws
        );
      ]);
  let shed reason ~id ~waited_ms =
    Admission.note reason;
    respond
      (Api.Response.error ~id Api.Response.Overloaded
         (Admission.message cfg ~waited_ms reason))
  in
  let rec next () =
    match Queue.take_opt pending with
    | None -> None
    | Some _ when not !connected -> None (* nobody to answer *)
    | Some p ->
        let waited_ms = 1e3 *. (Obs.now () -. p.p_enqueued) in
        if
          p.p_pressure
          && Admission.expired_in_queue
               ~deadline_ms:p.p_req.Api.Request.deadline_ms ~waited_ms
        then begin
          shed Admission.Expired ~id:p.p_req.Api.Request.id ~waited_ms;
          next ()
        end
        else Some (0, p.p_line)
  in
  let on_line line =
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
  pump t ~depth:pipeline_depth
    ~client:(Unix.descr_of_in_channel ic, on_line)
    ~next
    ~respond:(fun _ line -> respond_line line)
    ()

let with_fleet (cfg : Config.t) run =
  let t = create cfg in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> run t)

let serve cfg ic oc = with_fleet cfg (fun t -> session t ic oc)

(* The lines are read first: a batch with none forks no worker. *)
let batch cfg ic oc =
  match Protocol.read_requests ic with
  | [] -> flush oc
  | lines -> with_fleet cfg (fun t -> batch_lines t lines oc)

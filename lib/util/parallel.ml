(* A small Domain-based work pool: chunked, order-preserving parallel map.

   Design:
   - The pool holds [jobs () - 1] worker domains, spawned lazily on the
     first parallel call and kept alive for the life of the process (one
     spawn per worker, not per call — [map] is called from hot paths such
     as per-disjunct union counting).
   - Each [map] call self-schedules: indices are handed out in chunks
     through an [Atomic.t] cursor, results land in a preallocated array
     at their input index (order preservation is structural, not sorted
     after the fact).  The calling domain participates, so a pool of
     size [jobs - 1] saturates [jobs] cores and [map] works even before
     any worker has been spawned.
   - Nested calls run sequentially: a task that itself calls [map] would
     otherwise deadlock-prone-ly enqueue work the pool may not drain
     promptly, and the outer call already owns all the parallelism.
   - Exceptions raised by [f] are re-raised in the caller, for the
     smallest input index that failed (deterministic regardless of
     scheduling).

   The parallelism degree comes from [set_jobs] (the CLI's [--jobs]) or
   the [TENET_JOBS] environment variable, defaulting to 1 (fully
   sequential — no domain is ever spawned, no behavior change). *)

let env_var = "TENET_JOBS"

let parse_jobs ~what s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> n
  | Some n ->
      failwith
        (Printf.sprintf "bad %s %S: %d is not a positive job count" what s n)
  | None ->
      failwith
        (Printf.sprintf
           "bad %s %S: expected a positive integer number of jobs" what s)

let default_jobs () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> 1
  | Some s -> parse_jobs ~what:env_var s

let jobs_ref : int option ref = ref None

let jobs () =
  match !jobs_ref with
  | Some n -> n
  | None ->
      let n = default_jobs () in
      jobs_ref := Some n;
      n

let set_jobs n =
  if n < 1 then invalid_arg "Parallel.set_jobs: job count must be >= 1";
  jobs_ref := Some n

(* ------------------------------------------------------------------ *)
(* Deadline tokens.                                                    *)
(* ------------------------------------------------------------------ *)

(* The clock is injectable so deadline expiry is deterministic in tests;
   the serve scheduler leaves the wall-clock default. *)
let time_source : (unit -> float) ref = ref Unix.gettimeofday
let set_time_source f = time_source := f
let now () = !time_source ()

type token = float option (* the deadline on [now]'s clock, if any *)

let token ?deadline_s () = Option.map (fun d -> now () +. d) deadline_s
let cancelled t = match t with Some d -> now () >= d | None -> false

(* ------------------------------------------------------------------ *)
(* The pool.                                                           *)
(* ------------------------------------------------------------------ *)

(* True inside a worker domain or inside the caller's own participation
   in a [map]; used to force nested maps sequential. *)
let in_task_key = Domain.DLS.new_key (fun () -> false)

(* Hook applied to every task handed to a worker domain, captured on the
   submitting domain at submission time.  The telemetry layer installs a
   wrapper that re-establishes the submitter's trace id inside the
   worker (domain-local state does not cross [Domain.spawn]); the
   default is the identity. *)
let task_wrap : ((unit -> unit) -> unit -> unit) ref = ref Fun.id
let set_task_wrap f = task_wrap := f

let pool_mutex = Mutex.create ()
let pool_cv = Condition.create ()
let queue : (unit -> unit) Queue.t = Queue.create ()
let shutting_down = ref false
let workers : unit Domain.t list ref = ref []
let n_spawned = ref 0

let rec worker_loop () =
  Mutex.lock pool_mutex;
  while Queue.is_empty queue && not !shutting_down do
    Condition.wait pool_cv pool_mutex
  done;
  if Queue.is_empty queue then Mutex.unlock pool_mutex (* shutdown *)
  else begin
    let task = Queue.pop queue in
    Mutex.unlock pool_mutex;
    (* A raising task must not kill the worker: the pool never respawns
       a dead domain ([n_spawned] stays up), so one escaped exception —
       e.g. a serve response write to a disconnected client — would
       silently lose capacity for the life of the process, and the
       [at_exit] join would re-raise it.  [map]'s chunks capture their
       own exceptions per index; anything reaching here has no caller
       left to report to. *)
    (try task () with _ -> ());
    worker_loop ()
  end

let () =
  at_exit (fun () ->
      Mutex.lock pool_mutex;
      shutting_down := true;
      Condition.broadcast pool_cv;
      let ws = !workers in
      workers := [];
      Mutex.unlock pool_mutex;
      List.iter Domain.join ws)

(* Grow the pool to [n] workers; called outside [pool_mutex]. *)
let ensure_workers n =
  if !n_spawned < n then begin
    Mutex.lock pool_mutex;
    while !n_spawned < n && not !shutting_down do
      incr n_spawned;
      workers :=
        Domain.spawn (fun () ->
            Domain.DLS.set in_task_key true;
            worker_loop ())
        :: !workers
    done;
    Mutex.unlock pool_mutex
  end

(* ------------------------------------------------------------------ *)
(* Order-preserving map.                                               *)
(* ------------------------------------------------------------------ *)

let map_array ?(chunk = 1) (f : 'a -> 'b) (arr : 'a array) : 'b array =
  if chunk < 1 then invalid_arg "Parallel.map_array: chunk must be >= 1";
  let n = Array.length arr in
  let j = jobs () in
  if n <= 1 || j <= 1 || Domain.DLS.get in_task_key then Array.map f arr
  else begin
    ensure_workers (j - 1);
    let results : 'b option array = Array.make n None in
    let errors : exn option array = Array.make n None in
    let cursor = Atomic.make 0 in
    let finished = Atomic.make 0 in
    let done_mutex = Mutex.create () in
    let done_cv = Condition.create () in
    (* Small chunks keep the tail balanced; 4 chunks per job amortizes the
       atomic traffic without starving fast workers.  [chunk] raises the
       floor for callers whose per-item work is so cheap that the queue
       and cursor traffic would dominate (short DSE candidates): batching
       N items per pool task preserves order — results still land at
       their input index — it only coarsens the scheduling grain. *)
    let chunk = max chunk (n / (4 * j)) in
    let participate () =
      let continue = ref true in
      while !continue do
        let lo = Atomic.fetch_and_add cursor chunk in
        if lo >= n then continue := false
        else begin
          let hi = min n (lo + chunk) in
          for i = lo to hi - 1 do
            match f arr.(i) with
            | r -> results.(i) <- Some r
            | exception e -> errors.(i) <- Some e
          done;
          let total = Atomic.fetch_and_add finished (hi - lo) + (hi - lo) in
          if total = n then begin
            Mutex.lock done_mutex;
            Condition.broadcast done_cv;
            Mutex.unlock done_mutex
          end
        end
      done
    in
    (* Workers get the wrapped closure (captured here, on the submitting
       domain); the caller participates unwrapped — its domain-local
       context is already in place. *)
    let worker_participate = !task_wrap participate in
    Mutex.lock pool_mutex;
    for _ = 1 to min (j - 1) (1 + ((n - 1) / chunk)) do
      Queue.push worker_participate queue
    done;
    Condition.broadcast pool_cv;
    Mutex.unlock pool_mutex;
    Domain.DLS.set in_task_key true;
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set in_task_key false)
      participate;
    Mutex.lock done_mutex;
    while Atomic.get finished < n do
      Condition.wait done_cv done_mutex
    done;
    Mutex.unlock done_mutex;
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map
      (function
        | Some r -> r
        | None -> assert false (* every index finished without error *))
      results
  end

let map ?chunk (f : 'a -> 'b) (l : 'a list) : 'b list =
  match l with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ -> Array.to_list (map_array ?chunk f (Array.of_list l))

let init ?chunk (n : int) (f : int -> 'b) : 'b array =
  map_array ?chunk f (Array.init n (fun i -> i))

(* ------------------------------------------------------------------ *)
(* Bounded task submission (the serve scheduler).                      *)
(* ------------------------------------------------------------------ *)

(* Tasks submitted here share the queue with [map]'s participate chunks,
   but only submitted-and-not-yet-started tasks count against the bound:
   [map] never sees backpressure, and in-flight tasks keep running while
   new submissions are refused. *)
let queue_limit = ref max_int
let n_waiting = ref 0 (* guarded by pool_mutex *)
let n_running = ref 0 (* guarded by pool_mutex; submitted tasks only *)

let set_queue_limit n =
  if n < 1 then invalid_arg "Parallel.set_queue_limit: limit must be >= 1";
  queue_limit := n

let waiting () =
  Mutex.lock pool_mutex;
  let n = !n_waiting in
  Mutex.unlock pool_mutex;
  n

let running () =
  Mutex.lock pool_mutex;
  let n = !n_running in
  Mutex.unlock pool_mutex;
  n

let spawned_workers () =
  Mutex.lock pool_mutex;
  let n = !n_spawned in
  Mutex.unlock pool_mutex;
  n

let try_submit (f : unit -> unit) : bool =
  (* A submitted task is drained by a worker, never by the submitting
     thread, so the pool needs at least one worker even at [jobs () = 1]
     (where [map] alone would spawn none). *)
  ensure_workers (max 1 (jobs ()));
  let f = !task_wrap f in
  Mutex.lock pool_mutex;
  if !n_waiting >= !queue_limit || !shutting_down then begin
    Mutex.unlock pool_mutex;
    false
  end
  else begin
    incr n_waiting;
    Queue.push
      (fun () ->
        Mutex.lock pool_mutex;
        decr n_waiting;
        incr n_running;
        Mutex.unlock pool_mutex;
        Fun.protect
          ~finally:(fun () ->
            Mutex.lock pool_mutex;
            decr n_running;
            Mutex.unlock pool_mutex)
          f)
      queue;
    Condition.signal pool_cv;
    Mutex.unlock pool_mutex;
    true
  end

(* Scale-out serving throughput: a synthetic load generator driving the
   real server over its Unix socket, once with a single in-process
   server and once with a pre-forked worker fleet.

   The parent process is the load generator — a select pump that keeps
   a fixed window of requests pipelined, stamps each request at send
   and each response at arrival (correlated by id), and derives
   client-observed throughput and latency quantiles.  The servers are
   forked children running the ordinary `Server.run`, so the whole
   serving path is measured: framing, admission, dispatch, fan-out,
   reassembly.

   This section MUST run before any section that spawns domains: both
   the server forks here and the fleet forks inside the server child
   predate every parallel map in their respective processes (the OCaml
   runtime cannot fork once domains exist).  bench/main.ml lists it
   first for exactly that reason.

   summary.json extras: serve_mp_requests, serve_mp_workers,
   serve_mp_cores, serve_mp_single_rps, serve_mp_throughput_rps,
   serve_mp_speedup, serve_mp_p50_ms, serve_mp_p99_ms.  scripts/ci.sh
   gates speedup >= 2x when the machine has >= 4 cores (the fleet
   cannot beat one process on a single-core container). *)

module Server = Tenet.Serve.Server
module Config = Tenet.Serve.Config
module Api = Tenet.Serve.Api
module Protocol = Tenet.Serve.Protocol
module Json = Tenet.Obs.Json

(* All-distinct fingerprints (i/16, i mod 16 enumerate distinct pairs),
   so neither configuration gets free cache hits and the comparison is
   pure serving throughput. *)
let corpus n =
  List.init n (fun i ->
      Json.to_string
        (Api.Request.to_json
           {
             (Api.Request.default Api.Request.Analyze) with
             Api.Request.id = Printf.sprintf "m%d" i;
             sizes = [ 16 + (i / 16); 16 + (i mod 16); 20 ];
           }))

let spawn_server ~workers ~socket_path : int =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (try
         Server.run
           {
             Config.default with
             Config.workers;
             (* one pool domain per worker: process-level parallelism is
                what this section measures *)
             worker_jobs = 1;
             queue_limit = 256;
             socket = Some socket_path;
           }
       with _ -> ());
      exit 0
  | pid -> pid

let connect_retry path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when tries > 0 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.05;
        go (tries - 1)
  in
  go 200

let response_id line =
  match Json.member "id" (Json.parse line) with
  | Some (Json.String s) -> s
  | _ -> failwith ("serve_mp: response without an id: " ^ line)

(* The pump: keep [window] requests in flight, return per-request
   latencies (seconds, send to response) and the total wall clock. *)
let drive fd (lines : string array) : float list * float =
  Unix.set_nonblock fd;
  let n = Array.length lines in
  let window = 32 in
  let sent = ref 0 and received = ref 0 in
  let t_send : (string, float) Hashtbl.t = Hashtbl.create n in
  let latencies = ref [] in
  let rbuf = Buffer.create 65536 in
  let wpending = ref "" and woff = ref 0 in
  let chunk = Bytes.create 65536 in
  let t0 = Unix.gettimeofday () in
  while !received < n do
    if !woff >= String.length !wpending then begin
      let b = Buffer.create 4096 in
      while !sent < n && !sent - !received < window do
        Hashtbl.replace t_send
          (Printf.sprintf "m%d" !sent)
          (Unix.gettimeofday ());
        Buffer.add_string b lines.(!sent);
        Buffer.add_char b '\n';
        incr sent
      done;
      wpending := Buffer.contents b;
      woff := 0
    end;
    let want_write = !woff < String.length !wpending in
    match Unix.select [ fd ] (if want_write then [ fd ] else []) [] 30.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], [], [] -> failwith "serve_mp: server stopped responding (30 s)"
    | rs, ws, _ ->
        (if ws <> [] then
           match
             Unix.write_substring fd !wpending !woff
               (String.length !wpending - !woff)
           with
           | k -> woff := !woff + k
           | exception
               Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
               ());
        if rs <> [] then (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> failwith "serve_mp: server closed the connection early"
          | k ->
              Buffer.add_subbytes rbuf chunk 0 k;
              List.iter
                (fun line ->
                  let now = Unix.gettimeofday () in
                  (match Hashtbl.find_opt t_send (response_id line) with
                  | Some t -> latencies := (now -. t) :: !latencies
                  | None -> ());
                  incr received)
                (Protocol.drain_lines rbuf)
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              ())
  done;
  (!latencies, Unix.gettimeofday () -. t0)

let run_once ~workers (lines : string array) : float list * float =
  let socket_path = Filename.temp_file "tenet-mp" ".sock" in
  Sys.remove socket_path;
  let pid = spawn_server ~workers ~socket_path in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    (fun () ->
      let fd = connect_retry socket_path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> drive fd lines))

let quantile q xs =
  match xs with
  | [] -> 0.
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      a.(min (n - 1) (int_of_float (q *. float_of_int n)))

let run () =
  Bench_util.section "Scale-out serving throughput (pre-fork fleet)";
  let n = 80 in
  let lines = Array.of_list (corpus n) in
  let cores = Domain.recommended_domain_count () in
  let workers = if cores >= 4 then 4 else 2 in
  let (lat1, t1), _ =
    Bench_util.phase "single_process" (fun () -> run_once ~workers:1 lines)
  in
  let (latm, tm), _ =
    Bench_util.phase "multi_worker" (fun () ->
        run_once ~workers lines)
  in
  let fn = float_of_int n in
  let single_rps = fn /. Float.max t1 1e-9 in
  let multi_rps = fn /. Float.max tm 1e-9 in
  let speedup = multi_rps /. Float.max single_rps 1e-9 in
  let p50_ms = 1e3 *. quantile 0.5 latm in
  let p99_ms = 1e3 *. quantile 0.99 latm in
  Bench_util.row "%d requests, %d cores detected\n" n cores;
  Bench_util.row "single process: %8.3f s  (%.0f req/s, p99 %.1f ms)\n" t1
    single_rps
    (1e3 *. quantile 0.99 lat1);
  Bench_util.row "%d workers:     %8.3f s  (%.0f req/s, p99 %.1f ms)\n"
    workers tm multi_rps p99_ms;
  Bench_util.row "speedup:        %8.2fx\n" speedup;
  Bench_util.summary_extra "serve_mp_requests" (Json.Int n);
  Bench_util.summary_extra "serve_mp_workers" (Json.Int workers);
  Bench_util.summary_extra "serve_mp_cores" (Json.Int cores);
  Bench_util.summary_extra "serve_mp_single_rps" (Json.Float single_rps);
  Bench_util.summary_extra "serve_mp_throughput_rps" (Json.Float multi_rps);
  Bench_util.summary_extra "serve_mp_speedup" (Json.Float speedup);
  Bench_util.summary_extra "serve_mp_p50_ms" (Json.Float p50_ms);
  Bench_util.summary_extra "serve_mp_p99_ms" (Json.Float p99_ms)

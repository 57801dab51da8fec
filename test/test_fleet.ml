(* Tests for the pre-fork worker fleet (Tenet.Serve.Fleet).

   These live in their own executable because the fleet must fork its
   workers before any domain is spawned — the OCaml 5 runtime refuses
   Unix.fork once other domains exist.  Everything here is therefore
   ordered: every fork (fleets, the timed children of the regression
   runs, the crash-safety writer children, the worker killers and
   client writers) happens inside [forked], which each test case forces
   before its in-parent baseline evaluation — the baseline may touch
   the domain pool.

   The process ignores SIGPIPE, as the serve runners do: a write to a
   killed worker must fail with EPIPE instead of killing the test. *)

module Api = Tenet.Serve.Api
module Protocol = Tenet.Serve.Protocol
module Config = Tenet.Serve.Config
module Fleet = Tenet.Serve.Fleet
module Server = Tenet.Serve.Server
module Disk_cache = Tenet.Serve.Disk_cache
module Json = Tenet.Obs.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let found = ref false in
  for i = 0 to nh - nn do
    if String.sub hay i nn = needle then found := true
  done;
  !found

let analyze_line ~id sizes =
  Json.to_string
    (Api.Request.to_json
       { (Api.Request.default Api.Request.Analyze) with Api.Request.id; sizes })

(* A mix of sizes so responses differ, with repeats so worker caches see
   hits — neither may perturb the output bytes. *)
let requests =
  List.init 9 (fun i ->
      analyze_line
        ~id:(Printf.sprintf "r%d" i)
        [ 8 + (i mod 3); 8; 8 ])

let temp_dir () =
  let path = Filename.temp_file "tenet-fleet" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run a channel-shaped entry point over temp files: loss-free plumbing
   with no pipe-buffer deadlock risk. *)
let via_files (f : in_channel -> out_channel -> unit) (input : string) :
    string =
  let in_path = Filename.temp_file "tenet-fleet" ".in" in
  let out_path = Filename.temp_file "tenet-fleet" ".out" in
  let oc0 = open_out_bin in_path in
  output_string oc0 input;
  close_out oc0;
  let ic = open_in_bin in_path in
  let oc = open_out_bin out_path in
  Fun.protect
    ~finally:(fun () ->
      close_in_noerr ic;
      close_out_noerr oc)
    (fun () -> f ic oc);
  let out = read_file out_path in
  Sys.remove in_path;
  Sys.remove out_path;
  out

let lines s = String.split_on_char '\n' s |> List.filter (fun l -> l <> "")
let unlines ls = String.concat "" (List.map (fun l -> l ^ "\n") ls)

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* A forked child runs [f] and exits 0, or 1 if [f] raised; [_exit]
   skips the parent's at_exit handlers. *)
let fork_child (f : unit -> unit) : int =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 -> (
      try
        f ();
        Unix._exit 0
      with _ -> Unix._exit 1)
  | pid -> pid

(* Reap [pid] within [limit] seconds, SIGKILLing it past the limit;
   [true] iff it exited with status 0 in time. *)
let wait_child ~limit pid =
  let deadline = Unix.gettimeofday () +. limit in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false (* reaped *)
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        go ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        false
    | _, status -> status = Unix.WEXITED 0
  in
  go ()

(* [Some (f ())] as a forked child computed it, or [None] if the child
   failed or ran past [limit] seconds — so a hang fails the test
   instead of hanging it. *)
let in_child ~limit (f : unit -> string) : string option =
  let path = Filename.temp_file "tenet-fleet" ".child" in
  let pid =
    fork_child (fun () ->
        let s = f () in
        let oc = open_out_bin path in
        output_string oc s;
        close_out oc)
  in
  let result = if wait_child ~limit pid then Some (read_file path) else None in
  Sys.remove path;
  result

let connect_retry path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.05;
        go (tries - 1)
  in
  go 200

(* Response lines read from [fd] until [want] of them, EOF, or [limit]
   seconds. *)
let read_lines fd ~want ~limit =
  let deadline = Unix.gettimeofday () +. limit in
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec go acc n =
    let left = deadline -. Unix.gettimeofday () in
    if n >= want || left <= 0. then acc
    else
      match Unix.select [ fd ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go acc n
      | [], _, _ -> acc
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 | (exception Unix.Unix_error _) -> acc
          | k ->
              Buffer.add_subbytes buf chunk 0 k;
              let ls = Protocol.drain_lines buf in
              go (List.rev_append ls acc) (n + List.length ls))
  in
  List.rev (go [] 0)

(* Kill a cache writer mid-write, repeatedly, and assert the reader
   always sees a complete, consistent file: either alternating set in
   full, never a torn hybrid (the atomic tmp+rename contract). *)
let crash_safety_rounds () =
  let dir = temp_dir () in
  let entry body i =
    { Disk_cache.key = Printf.sprintf "k%02d" i; body }
  in
  let set_a = List.init 20 (entry "A") in
  let set_b = List.init 20 (entry "B") in
  for _round = 1 to 8 do
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        (try
           while true do
             Disk_cache.save ~dir set_a;
             Disk_cache.save ~dir set_b
           done
         with _ -> ());
        exit 0
    | pid -> (
        Unix.sleepf 0.02;
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        match Disk_cache.load ~dir with
        | [] -> () (* killed before the first rename landed *)
        | es ->
            check_int "complete set" 20 (List.length es);
            let bodies =
              List.sort_uniq compare
                (List.map (fun e -> e.Disk_cache.body) es)
            in
            check_bool "no torn hybrid" true
              (bodies = [ "A" ] || bodies = [ "B" ]))
  done

(* ------------------------------------------------------------------ *)
(* Regression runs.                                                    *)
(* ------------------------------------------------------------------ *)

(* Responses longer than a socket buffer: a worker blocks writing one
   until the parent reads it, so the parent must never block writing
   the next request to that worker. *)
let long_id_requests =
  List.map
    (fun c -> analyze_line ~id:(String.make 300_000 c) [ 8; 8; 8 ])
    [ 'a'; 'b'; 'c' ]

let long_ids_run () =
  let cfg2 = { Config.default with Config.workers = 2 } in
  in_child ~limit:20. (fun () ->
      via_files (Fleet.serve cfg2) (unlines long_id_requests))

(* A stream of such lines: a worker's write buffer must keep only the
   bytes not yet written, or the stream's cost grows with the square of
   its length. *)
let long_stream_requests =
  List.init 40 (fun i ->
      analyze_line
        ~id:(String.make 300_000 (Char.chr (Char.code 'a' + (i mod 26))))
        [ 8; 8; 8 ])

let long_stream_run entry =
  let cfg2 = { Config.default with Config.workers = 2 } in
  in_child ~limit:20. (fun () ->
      via_files (entry cfg2) (unlines long_stream_requests))

(* [Server.run] over [workers] (default 2) on a fresh socket, in a
   forked child. *)
let start_server ?(workers = 2) () =
  let path = Filename.temp_file "tenet-fleet" ".sock" in
  Sys.remove path;
  let pid =
    fork_child (fun () ->
        Server.run { Config.default with Config.workers; socket = Some path })
  in
  (pid, path)

let stop_server (pid, path) =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (wait_child ~limit:10. pid);
  try Sys.remove path with Sys_error _ -> ()

(* A socket client that sends 600 requests and reads nothing for 3 s:
   the server's writes back to it fill the socket and block, which must
   only delay this client — not crash the server. *)
let late_requests =
  List.init 600 (fun i ->
      analyze_line ~id:(Printf.sprintf "late%d" i) [ 8; 8; 8 ])

let late_reader_run () =
  let ((pid, path) as server) = start_server () in
  let fd = connect_retry path in
  write_all fd (unlines late_requests);
  Unix.sleepf 3.0;
  let responses = read_lines fd ~want:600 ~limit:30. in
  Unix.close fd;
  let up = fst (Unix.waitpid [ Unix.WNOHANG ] pid) = 0 in
  (* the next client still gets served *)
  let next_client =
    if not up then []
    else begin
      let fd = connect_retry path in
      write_all fd (unlines [ List.hd late_requests ]);
      let r = read_lines fd ~want:1 ~limit:30. in
      Unix.close fd;
      r
    end
  in
  stop_server server;
  (responses, up, next_client)

(* A client that hangs up with requests in flight: the responses still
   due to it must not reach the next client.  With [stats] first and a
   pause before the hang-up, the client closes with the inline stats
   response unread, so the server's next read of it fails (ECONNRESET)
   instead of seeing EOF. *)
let hangup_run ?workers ?(stats = false) () =
  let ((_, path) as server) = start_server ?workers () in
  let fd = connect_retry path in
  write_all fd
    (unlines
       ((if stats then [ {|{"cmd":"stats","id":"s!"}|} ] else [])
       @ List.init 40 (fun i ->
             analyze_line ~id:(Printf.sprintf "gone%d" i) [ 24 + i; 24; 24 ])
       ));
  if stats then Unix.sleepf 0.3;
  Unix.close fd;
  let fd = connect_retry path in
  write_all fd (unlines [ List.hd requests ]);
  let r = read_lines fd ~want:1 ~limit:30. in
  Unix.close fd;
  stop_server server;
  r

(* ------------------------------------------------------------------ *)
(* Worker death.                                                       *)
(* ------------------------------------------------------------------ *)

let contract_id i = Printf.sprintf "c%d" i

let contract_requests =
  List.init 14 (fun i ->
      analyze_line ~id:(contract_id i) [ 8 + (i mod 3); 8; 8 ])

let failure id msg =
  Protocol.response_line (Api.Response.error ~id Api.Response.Internal msg)

let mid_request id = failure id "fleet worker exited mid-request"
let no_worker id = failure id "no fleet worker available"

(* Run [run] on a fleet of [workers] whose [idle] workers are SIGKILLed
   up front and whose [stopped] workers get SIGSTOP — the lines
   dispatched to them stay outstanding — until a killer child SIGKILLs
   them 0.3 s in. *)
let with_deaths ~workers ~idle ~stopped run =
  let t = Fleet.create { Config.default with Config.workers } in
  let pids = Array.of_list (Fleet.worker_pids t) in
  List.iter (fun i -> Unix.kill pids.(i) Sys.sigkill) idle;
  List.iter (fun i -> Unix.kill pids.(i) Sys.sigstop) stopped;
  let killer =
    fork_child (fun () ->
        Unix.sleepf 0.3;
        List.iter (fun i -> Unix.kill pids.(i) Sys.sigkill) stopped)
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (wait_child ~limit:10. killer);
      Fleet.shutdown t)
    (fun () -> run t)

(* Two batches on one fleet: the first meets the deaths, the second
   runs on whatever survives them. *)
let batch_with_deaths ~workers ~idle ~stopped =
  with_deaths ~workers ~idle ~stopped (fun t ->
      let run () =
        lines (via_files (Fleet.batch_session t) (unlines contract_requests))
      in
      let first = run () in
      (first, run ()))

(* A session whose client, a writer child on a pipe, sends the first
   [head] lines at once and the rest [delay] seconds later. *)
let session_with_deaths ~workers ~idle ~stopped ~head ~delay =
  with_deaths ~workers ~idle ~stopped (fun t ->
      let rd, wr = Unix.pipe () in
      let writer =
        fork_child (fun () ->
            Unix.close rd;
            write_all wr
              (unlines (List.filteri (fun i _ -> i < head) contract_requests));
            Unix.sleepf delay;
            write_all wr
              (unlines (List.filteri (fun i _ -> i >= head) contract_requests)))
      in
      Unix.close wr;
      let out_path = Filename.temp_file "tenet-fleet" ".out" in
      let ic = Unix.in_channel_of_descr rd in
      let oc = open_out_bin out_path in
      Fleet.session t ic oc;
      close_in ic;
      close_out oc;
      ignore (wait_child ~limit:10. writer);
      let out = read_file out_path in
      Sys.remove out_path;
      lines out)

(* ------------------------------------------------------------------ *)
(* Every fork, once.                                                   *)
(* ------------------------------------------------------------------ *)

type runs = {
  batch_out : string;
  serve_out : string;
  unterminated : string;
  empty_batch : string * string array;
  long_ids : string option;
  long_stream_batch : string option;
  long_stream_serve : string option;
  late_reader : string list * bool * string list;
  after_hangup : string list;
  after_hangup_in_process : string list;
  batch_survivor : string list * string list;
  batch_all_dead : string list * string list;
  session_survivor : string list;
  session_all_dead : string list;
}

let forked =
  lazy
    (let input = unlines requests in
     (* batch across 3 workers *)
     let cfg3 = { Config.default with Config.workers = 3 } in
     let batch_out = via_files (Fleet.batch cfg3) input in
     (* a serve session across 2 workers, with an inline stats probe *)
     let serve_input =
       unlines (requests @ [ {|{"cmd":"stats","id":"s!"}|} ])
     in
     let cfg2 = { Config.default with Config.workers = 2 } in
     let serve_out = via_files (Fleet.serve cfg2) serve_input in
     (* a last line without its newline is still a request *)
     let unterminated = via_files (Fleet.serve cfg2) (List.hd requests) in
     (* a batch with no request line forks no worker, so none saves a
        cache slice *)
     let empty_batch =
       let dir = temp_dir () in
       let out =
         via_files
           (Fleet.batch { cfg3 with Config.cache_dir = Some dir })
           "# no requests\n\n"
       in
       let files = Sys.readdir dir in
       Array.iter (fun f -> Sys.remove (Filename.concat dir f)) files;
       Unix.rmdir dir;
       (out, files)
     in
     crash_safety_rounds ();
     let long_ids = long_ids_run () in
     let long_stream_batch = long_stream_run Fleet.batch in
     let long_stream_serve = long_stream_run Fleet.serve in
     let late_reader = late_reader_run () in
     let after_hangup = hangup_run () in
     let after_hangup_in_process = hangup_run ~workers:1 ~stats:true () in
     (* one survivor beside an idle death and a stopped one *)
     let batch_survivor =
       batch_with_deaths ~workers:3 ~idle:[ 2 ] ~stopped:[ 0 ]
     in
     let session_survivor =
       session_with_deaths ~workers:3 ~idle:[ 2 ] ~stopped:[ 0 ] ~head:14
         ~delay:0.
     in
     (* every worker dead; the session's last 4 lines arrive 0.6 s in,
        after the last death, and the second batch comes after it *)
     let batch_all_dead =
       batch_with_deaths ~workers:2 ~idle:[ 1 ] ~stopped:[ 0 ]
     in
     let session_all_dead =
       session_with_deaths ~workers:2 ~idle:[ 1 ] ~stopped:[ 0 ] ~head:10
         ~delay:0.6
     in
     {
       batch_out;
       serve_out;
       unterminated;
       empty_batch;
       long_ids;
       long_stream_batch;
       long_stream_serve;
       late_reader;
       after_hangup;
       after_hangup_in_process;
       batch_survivor;
       batch_all_dead;
       session_survivor;
       session_all_dead;
     })

let response_id line =
  match Json.member "id" (Json.parse line) with
  | Some (Json.String s) -> s
  | _ -> ""

(* The exact bytes the single-process batch runner prints. *)
let one_shot ls =
  List.map (fun l -> Protocol.response_line (Protocol.handle_line l)) ls

let test_fleet () =
  let r = Lazy.force forked in
  let baseline = one_shot requests in
  check_string "fleet batch byte-identical to one-shot"
    (String.concat "\n" baseline ^ "\n")
    r.batch_out;
  (* the session answers in completion order: same response multiset,
     plus the stats line *)
  let serve_lines = lines r.serve_out in
  check_int "every request answered" (List.length requests + 1)
    (List.length serve_lines);
  let stats_lines, response_lines =
    List.partition (fun l -> contains l {|"id":"s!"|}) serve_lines
  in
  check_int "stats answered inline" 1 (List.length stats_lines);
  check_bool "stats is a stats payload" true
    (contains (List.hd stats_lines) {|"kind":"stats"|});
  check_bool "session responses match one-shot bytes" true
    (List.sort compare response_lines = List.sort compare baseline)

let test_unterminated () =
  check_string "an unterminated last line is answered"
    (unlines (one_shot [ List.hd requests ]))
    (Lazy.force forked).unterminated

let test_empty_batch () =
  let out, cache_files = (Lazy.force forked).empty_batch in
  check_string "no output" "" out;
  check_int "no worker saved a cache slice" 0 (Array.length cache_files)

let test_long_ids () =
  let r = Lazy.force forked in
  match r.long_ids with
  | None -> Alcotest.fail "serve on 2 workers hung on three long-id lines"
  | Some out ->
      check_bool "every long-id line answered like one-shot" true
        (List.sort compare (lines out)
        = List.sort compare (one_shot long_id_requests))

let test_long_stream () =
  let r = Lazy.force forked in
  let baseline = one_shot long_stream_requests in
  (match r.long_stream_batch with
  | None -> Alcotest.fail "batch on 2 workers ran past 20 s on 40 long ids"
  | Some out ->
      check_bool "batch answers the long-id stream as one-shot" true
        (lines out = baseline));
  match r.long_stream_serve with
  | None -> Alcotest.fail "serve on 2 workers ran past 20 s on 40 long ids"
  | Some out ->
      check_bool "serve answers the long-id stream as one-shot" true
        (List.sort compare (lines out) = List.sort compare baseline)

let test_late_reader () =
  let responses, up, next_client = (Lazy.force forked).late_reader in
  check_int "600 responses to a client that reads late" 600
    (List.length responses);
  check_bool "the server stays up" true up;
  check_bool "the next client is served" true
    (next_client = one_shot [ List.hd late_requests ]);
  (* past the queue limit the server sheds: every line is answered, but
     not necessarily as one-shot *)
  check_bool "one response per request" true
    (List.sort compare (List.map response_id responses)
    = List.sort compare (List.init 600 (Printf.sprintf "late%d")))

let test_hangup () =
  check_bool "the next client gets only its own response" true
    ((Lazy.force forked).after_hangup = one_shot [ List.hd requests ])

let test_hangup_in_process () =
  check_bool "the next client gets only its own response" true
    ((Lazy.force forked).after_hangup_in_process
    = one_shot [ List.hd requests ])

(* The responses in request order, checking each request got exactly
   one. *)
let one_each ~what responses =
  check_int (what ^ ": one response per line")
    (List.length contract_requests) (List.length responses);
  List.mapi
    (fun i _ ->
      match List.filter (fun r -> response_id r = contract_id i) responses with
      | [ r ] -> r
      | rs ->
          Alcotest.failf "%s: %d responses for %s" what (List.length rs)
            (contract_id i))
    contract_requests

(* One worker survives: a dead worker's outstanding lines fail, every
   other line is answered as one-shot would. *)
let check_survivor ~what baseline ordered =
  let failed = ref 0 in
  List.iteri
    (fun i r ->
      if r = mid_request (contract_id i) then incr failed
      else
        check_string (what ^ ": answered as one-shot") (List.nth baseline i) r)
    ordered;
  check_bool (what ^ ": outstanding lines failed") true (!failed >= 1);
  check_bool (what ^ ": the survivor answered") true
    (!failed < List.length ordered)

(* Every worker dies: the lines dispatched before the last death fail
   mid-request, which in dispatch (input) order is a prefix; every
   later line, including the last [after] sent after the death, gets
   "no fleet worker available".  A batch dispatches every line at
   once, so its prefix may be all of them. *)
let check_all_dead ~what ~after ordered =
  let n = List.length ordered in
  let rec prefix i = function
    | r :: rest when r = mid_request (contract_id i) -> prefix (i + 1) rest
    | _ -> i
  in
  let k = prefix 0 ordered in
  check_bool (what ^ ": outstanding lines failed") true (k >= 1);
  check_bool (what ^ ": later lines found no worker") true (k <= n - after);
  List.iteri
    (fun i r ->
      if i >= k then
        check_string (what ^ ": no worker") (no_worker (contract_id i)) r)
    ordered

let test_batch_deaths () =
  let r = Lazy.force forked in
  let baseline = one_shot contract_requests in
  let first, next = r.batch_survivor in
  let ordered = one_each ~what:"batch" first in
  check_bool "batch output in input order" true (ordered = first);
  check_survivor ~what:"batch" baseline ordered;
  check_bool "the next batch runs on the survivor" true (next = baseline);
  let first, next = r.batch_all_dead in
  let ordered = one_each ~what:"batch, all dead" first in
  check_bool "batch output in input order" true (ordered = first);
  check_all_dead ~what:"batch, all dead" ~after:0 ordered;
  check_bool "the next batch finds no worker" true
    (next = List.mapi (fun i _ -> no_worker (contract_id i)) contract_requests)

let test_session_deaths () =
  let r = Lazy.force forked in
  let baseline = one_shot contract_requests in
  check_survivor ~what:"session" baseline
    (one_each ~what:"session" r.session_survivor);
  check_all_dead ~what:"session, all dead" ~after:4
    (one_each ~what:"session, all dead" r.session_all_dead)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "fleet"
    [
      ( "fleet",
        [
          Alcotest.test_case "batch + session + crash safety" `Quick test_fleet;
          Alcotest.test_case "unterminated last line" `Quick
            test_unterminated;
          Alcotest.test_case "empty batch" `Quick test_empty_batch;
          Alcotest.test_case "long ids through serve" `Quick test_long_ids;
          Alcotest.test_case "stream of long ids" `Quick test_long_stream;
          Alcotest.test_case "socket client reading late" `Quick
            test_late_reader;
          Alcotest.test_case "socket client hanging up" `Quick test_hangup;
          Alcotest.test_case "socket client hanging up, in-process" `Quick
            test_hangup_in_process;
          Alcotest.test_case "worker death in batch" `Quick test_batch_deaths;
          Alcotest.test_case "worker death in session" `Quick
            test_session_deaths;
        ] );
    ]

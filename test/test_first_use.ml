(* First use of process-wide values from several domains at once.

   The first [Count.verify_mode] call and the first serve result-cache
   access can both come from pool domains racing each other.  A plain
   [lazy] behind them is not domain-safe in OCaml 5: a domain forcing
   it while another domain is still computing it raises
   [CamlinternalLazy.Undefined].  A race needs a fresh process (the
   value is built once per process), so this binary re-executes itself
   as a child that lines up four domains on a barrier and makes both
   first uses at once, fifty times over. *)

module Api = Tenet.Serve.Api
module Count = Tenet.Isl.Count

let child_flag = "--first-use-child"
let domains = 4
let processes = 50

(* Spin until [n] domains have arrived, so they leave together. *)
let barrier n =
  let arrived = Atomic.make 0 in
  fun () ->
    Atomic.incr arrived;
    while Atomic.get arrived < n do
      Domain.cpu_relax ()
    done

(* A domain that raised still reaches the next barrier, so its
   siblings never wait on it forever. *)
let child () =
  let first = barrier domains and second = barrier domains in
  let raised = Atomic.make 0 in
  let attempt f =
    try f ()
    with e ->
      prerr_endline ("first use raised: " ^ Printexc.to_string e);
      Atomic.incr raised
  in
  let force () =
    first ();
    attempt (fun () -> ignore (Count.verify_mode ()));
    second ();
    attempt Api.clear_cache
  in
  List.iter Domain.join (List.init domains (fun _ -> Domain.spawn force));
  exit (if Atomic.get raised = 0 then 0 else 1)

let test_concurrent_first_use () =
  let failed = ref 0 in
  for _ = 1 to processes do
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; child_flag |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> incr failed
  done;
  Alcotest.(check int) "processes whose first use raised" 0 !failed

(* The budget is read on first use, not at module init: a malformed
   value fails the first cache access (this binary started fine). *)
let test_bad_budget_fails_at_first_use () =
  let var = "TENET_SERVE_CACHE_MB" in
  Unix.putenv var "zap";
  Fun.protect
    ~finally:(fun () -> Unix.putenv var "")
    (fun () ->
      match Api.clear_cache () with
      | () -> Alcotest.fail "malformed cache budget accepted"
      | exception Failure msg ->
          Alcotest.(check string)
            "names the variable"
            (Printf.sprintf "bad %s %S" var "zap")
            (String.sub msg 0 (String.length var + 10)))

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = child_flag then child ()
  else
    Alcotest.run "first use"
      [
        ( "first use",
          [
            Alcotest.test_case "4 domains, fresh processes" `Quick
              test_concurrent_first_use;
            Alcotest.test_case "bad cache budget fails at first use" `Quick
              test_bad_budget_fails_at_first_use;
          ] );
      ]

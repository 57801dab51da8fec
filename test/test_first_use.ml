(* First use of a process-wide value from several domains at once.

   The first serve result-cache access can come from pool domains
   racing each other.  A plain [lazy] behind it is not domain-safe in
   OCaml 5: a domain forcing it while another domain is still computing
   it raises [CamlinternalLazy.Undefined].  A race needs a fresh process
   (the value is built once per process), so this binary re-executes
   itself as a child that lines up four domains on a barrier and makes
   the first use at once, fifty times over. *)

module Api = Tenet.Serve.Api

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

let child () =
  let ready = barrier domains in
  let raised = Atomic.make 0 in
  let force () =
    ready ();
    try Api.clear_cache ()
    with e ->
      prerr_endline ("first use raised: " ^ Printexc.to_string e);
      Atomic.incr raised
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

(* The repository benchmark's entry point: one workload per process, a
   closed loop with one caller on one domain.  See README.md.

     bench.exe --workload W --seed N --seconds S --trace 0|1
     bench.exe --inputs W --seed N    print the generated inputs
     bench.exe --record W             write the default seed's digests
     bench.exe --self-test            check the statistics helpers

   Run it from the root of the checkout: the committed digests are in
   perfbench/expected.

   The last line of a run's output is one JSON object: correct,
   attempted, failed and the metrics (end-to-end ones untraced,
   per-layer ones under --trace 1). *)

module H = Harness
module Json = Tenet.Obs.Json

let default_seed = 1
let expected_dir = Filename.concat "perfbench" "expected"

(* name -> (the workload, the rendering of its generated inputs) *)
let workloads =
  [
    (W_serve.name, (W_serve.workload, W_serve.inputs));
    (W_sim.name, (W_sim.workload, W_sim.inputs));
    (W_dse.name, (W_dse.workload, W_dse.inputs));
  ]

let find name =
  match List.assoc_opt name workloads with
  | Some w -> w
  | None ->
      failwith
        (Printf.sprintf "unknown workload %S; known: %s" name
           (String.concat ", " (List.map fst workloads)))

let workload name ~seed = (fst (find name)) ~seed
let inputs name ~seed = (snd (find name)) ~seed

(* Digests are compared on a 64-bit prefix. *)
let short d = if String.length d > 16 then String.sub d 0 16 else d

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      Array.of_list (go []))

let metric name value unit =
  (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ])

let median_of f rounds = Stats.median (Array.of_list (List.map f rounds))

(* Each op's fastest time over the run's untraced passes.  Every pass
   does the same work (the checks hold each op's output equal across
   rounds), and interference from the rest of the host only ever adds
   time.  The host's speed drifts in phases of seconds, so an op's best
   over passes spread across the run is the steadiest reading of the
   program's own speed; a whole pass rarely fits in one fast phase. *)
let best_lat (untraced : H.round list) : float array =
  let n = Array.length (List.hd untraced).H.lat in
  Array.init n (fun i ->
      List.fold_left (fun m r -> Float.min m r.H.lat.(i)) infinity untraced)

(* The pass figures come from the per-op best times: pass_s is their
   sum and the op percentiles are taken over them.  Set-up time is the
   median of every timed set-up. *)
let end_to_end (rounds : H.round list) : (string * Json.t) list =
  let untraced = List.filter (fun r -> not r.H.traced) rounds in
  let first = List.hd untraced in
  let lat = best_lat untraced in
  let q p = 1e3 *. Stats.quantile lat p in
  [
    metric "setup_s"
      (Stats.median (Array.of_list (List.concat_map (fun r -> r.H.setup_s) untraced)))
      "s";
    metric "pass_s" (Array.fold_left ( +. ) 0. lat) "s";
    metric "op_p50_ms" (q 0.5) "ms";
    metric "op_p90_ms" (q 0.9) "ms";
    metric "op_p99_ms" (q 0.99) "ms";
    metric "peak_rss_mb" first.H.rss_mb "MB";
    metric "alloc_mb" (H.mb_of_words first.H.alloc_words) "MB";
    metric "model_err_pct" first.H.summary.H.model_err_pct "%";
  ]

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_s" then "s"
  else if ends "_mb" then "MB"
  else if ends "_ratio" then "ratio"
  else if ends "_pct" then "%"
  else if name = "sim.us_per_stamp" then "us"
  else "count"

(* Every per-layer figure.  Traced rounds give self times and counters,
   the untraced ones calls and allocation.  Times are medians over the
   rounds that give them; everything else is exact and comes from the
   first such round, so that it does not depend on how many rounds fit
   in the run. *)
let per_layer (rounds : H.round list) : (string * Json.t) list =
  let traced = List.filter (fun r -> r.H.traced) rounds in
  let untraced = List.filter (fun r -> not r.H.traced) rounds in
  let first = List.hd untraced in
  let names = List.map fst ((List.hd untraced).H.layers @ (List.hd traced).H.layers) in
  let value n =
    let giving = List.filter (fun r -> List.mem_assoc n r.H.layers) rounds in
    match unit_of n with
    | "s" | "us" -> median_of (fun r -> List.assoc n r.H.layers) giving
    | _ -> List.assoc n (List.hd giving).H.layers
  in
  let pass_s = median_of (fun r -> r.H.pass_s) in
  let overhead = 100. *. ((pass_s traced /. pass_s untraced) -. 1.) in
  let metrics =
    List.map (fun n -> metric n (value n) (unit_of n)) names
    @ [
        metric "obs.overhead_pct" overhead "%";
        metric "gc.major_collections" (float_of_int first.H.major_collections) "count";
        metric "gc.promoted_mb" (H.mb_of_words first.H.promoted_words) "MB";
      ]
  in
  (* grouped by layer, in the order of the README's table *)
  let layers =
    [ "sim"; "concrete"; "template"; "scaled"; "count"; "analysis"; "dse"; "serve"; "obs"; "gc" ]
  in
  let rank (n, _) =
    let l = List.hd (String.split_on_char '.' n) in
    let rec find i = function [] -> i | x :: r -> if x = l then i else find (i + 1) r in
    find 0 layers
  in
  List.stable_sort (fun a b -> compare (rank a) (rank b)) metrics

(* Shares and percentile evidence, for the steadiness record. *)
let info (rounds : H.round list) : Json.t =
  let first = List.hd rounds in
  let lat = best_lat (List.filter (fun r -> not r.H.traced) rounds) in
  Json.Obj
    ([
       ("rounds", Json.Int (List.length rounds));
       ("ops_per_pass", Json.Int (Array.length lat));
       ("beyond_p50", Json.Int (Stats.beyond lat 0.5));
       ("beyond_p90", Json.Int (Stats.beyond lat 0.9));
       ("beyond_p99", Json.Int (Stats.beyond lat 0.99));
       ( "setup_samples",
         Json.Int (List.length (List.concat_map (fun r -> r.H.setup_s) rounds)) );
     ]
    @ List.map (fun (k, v) -> (k, Json.Float v)) first.H.summary.H.shares)

let run ~name ~seed ~seconds ~trace =
  let w = workload name ~seed in
  let rounds = H.run w ~seconds ~trace in
  let first = List.hd rounds in
  let expected =
    if seed <> default_seed then None
    else
      let path = Filename.concat expected_dir (name ^ ".txt") in
      if Sys.file_exists path then Some (read_lines path) else Some [||]
  in
  let failed = ref 0 and attempted = ref 0 in
  List.iteri
    (fun k r ->
      let bad = Array.make (Array.length r.H.digests) None in
      List.iter (fun (i, e) -> bad.(i) <- Some e) r.H.errors;
      Array.iteri
        (fun i d ->
          if bad.(i) = None && d <> first.H.digests.(i) then
            bad.(i) <- Some "output differs from the first round's";
          match expected with
          | Some e when bad.(i) = None && (i >= Array.length e || e.(i) <> short d)
            ->
              bad.(i) <- Some "output differs from the committed digest"
          | _ -> ())
        r.H.digests;
      Array.iteri
        (fun i b ->
          incr attempted;
          Option.iter
            (fun e ->
              incr failed;
              if !failed <= 10 then
                Printf.eprintf "round %d op %d failed: %s\n%!" k i e)
            b)
        bad)
    rounds;
  List.iteri
    (fun k r ->
      Printf.printf
        "round %d%s: setup %s s, pass %.6f s, p50 %.6f ms, p90 %.6f ms, p99 %.6f \
         ms, alloc %.1f MB\n"
        k
        (if r.H.traced then " (traced)" else "")
        (String.concat "/" (List.map (Printf.sprintf "%.6f") r.H.setup_s))
        r.H.pass_s
        (1e3 *. Stats.quantile r.H.lat 0.5)
        (1e3 *. Stats.quantile r.H.lat 0.9)
        (1e3 *. Stats.quantile r.H.lat 0.99)
        (H.mb_of_words r.H.alloc_words))
    rounds;
  print_endline ("info: " ^ Json.to_string (info rounds));
  let metrics = if trace then per_layer rounds else end_to_end rounds in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (!failed = 0));
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ("metrics", Json.Obj metrics);
          ]))

let record ~name =
  let rounds =
    H.run_round (workload name ~seed:default_seed) ~trace:false ~traced:false ~full:true
  in
  if rounds.H.errors <> [] then begin
    List.iter (fun (i, e) -> Printf.eprintf "op %d failed: %s\n" i e) rounds.H.errors;
    exit 1
  end;
  let oc = open_out (Filename.concat expected_dir (name ^ ".txt")) in
  Array.iter (fun d -> output_string oc (short d ^ "\n")) rounds.H.digests;
  close_out oc

let self_test () =
  let ok = ref true in
  let expect what got want =
    if Float.abs (got -. want) > 1e-9 then begin
      ok := false;
      Printf.printf "FAIL %s: got %g, want %g\n" what got want
    end
  in
  let xs = [| 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6.; 5.; 3. |] in
  expect "min" (Stats.quantile xs 0.) 1.;
  expect "max" (Stats.quantile xs 1.) 9.;
  expect "median (even n)" (Stats.median xs) 3.5;
  expect "p90" (Stats.quantile xs 0.9) 6.3;
  expect "p25" (Stats.quantile xs 0.25) 2.25;
  expect "median (odd n)" (Stats.median [| 7.; 1.; 3. |]) 3.;
  expect "single sample" (Stats.quantile [| 42. |] 0.99) 42.;
  let ramp = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  expect "p99 of 1..1000" (Stats.quantile ramp 0.99) 990.01;
  expect "beyond p99 of 1..1000" (float_of_int (Stats.beyond ramp 0.99)) 10.;
  expect "beyond p90 of 1..1000" (float_of_int (Stats.beyond ramp 0.9)) 100.;
  (* self time: a root with two children, one of which has a child *)
  let span name depth dur =
    {
      Tenet.Obs.sp_name = name;
      sp_args = [];
      sp_trace = "p0";
      sp_start = 0.;
      sp_dur = dur;
      sp_depth = depth;
      sp_seq = 0;
    }
  in
  let selfs =
    H.self_times
      [
        span "concrete.walk" 2 1.;
        span "concrete.analyze" 1 3.;
        span "sim.run" 1 2.;
        span "bench.dse" 0 10.;
      ]
  in
  let self l = Option.value ~default:0. (Hashtbl.find_opt selfs (l, "p0")) in
  expect "model self" (self "model") 3.;
  expect "sim self" (self "sim") 2.;
  expect "dse self" (self "dse") 5.;
  if !ok then print_endline "self-test: ok" else exit 1

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10. in
  let trace = ref 0 and mode = ref `Run in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME  one of " ^ String.concat ", " (List.map fst workloads) );
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  how long to measure");
      ("--trace", Arg.Set_int trace, "0|1  per-layer run");
      ( "--inputs",
        Arg.String
          (fun w ->
            workload := w;
            mode := `Inputs),
        "NAME  print the generated inputs" );
      ( "--record",
        Arg.String
          (fun w ->
            workload := w;
            mode := `Record),
        "NAME  write the default seed's digests to " ^ expected_dir );
      ( "--self-test",
        Arg.Unit (fun () -> mode := `Self_test),
        "  check the statistics and self-time helpers" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe [options]";
  match !mode with
  | `Self_test -> self_test ()
  | `Inputs -> List.iter print_endline (inputs !workload ~seed:!seed)
  | `Record -> record ~name:!workload
  | `Run ->
      if !trace <> 0 && !trace <> 1 then failwith "--trace takes 0 or 1";
      run ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)

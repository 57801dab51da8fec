(* Tests for the telemetry library (lib/obs): span nesting and ordering,
   counter aggregation, disabled-mode no-op behavior, deterministic JSON
   shape under an injected clock, and JSON round-trips for the CLI's
   machine-readable outputs.  No wall-clock values are asserted: every
   timed test installs a fake clock that advances 1s per read. *)

module Obs = Tenet.Obs
module Json = Tenet.Obs.Json
module Ir = Tenet.Ir
module Arch = Tenet.Arch
module Df = Tenet.Dataflow
module M = Tenet.Model
module Dse = Tenet.Dse.Dse

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Each read of the fake clock advances time by exactly 1s. *)
let install_fake_clock () =
  let t = ref 0. in
  Obs.set_clock (fun () ->
      let v = !t in
      t := v +. 1.;
      v)

let fresh () =
  Obs.disable ();
  install_fake_clock ();
  Obs.reset ();
  Obs.enable ()

let teardown () = Obs.disable ()

(* --- spans --- *)

let test_span_nesting () =
  fresh ();
  let r =
    Obs.with_span "outer" (fun () ->
        Obs.with_span ~args:[ ("k", "v") ] "inner" (fun () -> 42))
  in
  check_int "with_span returns the thunk's value" 42 r;
  (match Obs.spans () with
  | [ inner; outer ] ->
      check_string "inner completes first" "inner" inner.Obs.sp_name;
      check_string "outer completes last" "outer" outer.Obs.sp_name;
      check_int "inner depth" 1 inner.Obs.sp_depth;
      check_int "outer depth" 0 outer.Obs.sp_depth;
      check_int "inner seq" 0 inner.Obs.sp_seq;
      check_int "outer seq" 1 outer.Obs.sp_seq;
      check_bool "inner starts after outer" true
        (inner.Obs.sp_start > outer.Obs.sp_start);
      check_bool "inner nests inside outer" true
        (inner.Obs.sp_start +. inner.Obs.sp_dur
        <= outer.Obs.sp_start +. outer.Obs.sp_dur);
      check_bool "inner args kept" true (inner.Obs.sp_args = [ ("k", "v") ])
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
  teardown ()

let test_span_exception_safety () =
  fresh ();
  (try
     Obs.with_span "outer" (fun () ->
         Obs.with_span "boom" (fun () -> failwith "boom"))
   with Failure _ -> ());
  check_int "both spans recorded despite the exception" 2
    (List.length (Obs.spans ()));
  (* depth restored: a new span opens at depth 0 again *)
  Obs.with_span "after" (fun () -> ());
  (match List.rev (Obs.spans ()) with
  | after :: _ -> check_int "depth restored after exception" 0 after.Obs.sp_depth
  | [] -> Alcotest.fail "no spans");
  teardown ()

(* --- counters & histograms --- *)

let test_counter_aggregation () =
  fresh ();
  let c1 = Obs.counter "test.c" in
  let c2 = Obs.counter "test.c" in
  check_bool "same name, same cell" true (c1 == c2);
  Obs.incr c1;
  Obs.add c2 4;
  Obs.count ~by:5 "test.c";
  check_int "all bumps aggregate" 10 (Obs.value c1);
  Obs.count "test.other";
  let cs = List.filter (fun (n, _) -> n = "test.c" || n = "test.other")
      (Obs.counters ())
  in
  check_bool "counters listed sorted by name" true
    (List.map fst cs = [ "test.c"; "test.other" ]);
  check_bool "values correct" true (List.map snd cs = [ 10; 1 ]);
  Obs.reset ();
  check_int "reset zeroes values" 0 (Obs.value c1);
  teardown ()

let test_histograms () =
  fresh ();
  Obs.observe "test.h" 2.;
  Obs.observe "test.h" 4.;
  Obs.observe "test.h" 6.;
  (match Obs.histograms () with
  | [ h ] ->
      check_int "count" 3 (Obs.hist_count h);
      check_bool "sum" true (Obs.hist_sum h = 12.);
      check_bool "min" true (Obs.hist_min h = 2.);
      check_bool "max" true (Obs.hist_max h = 6.)
  | l -> Alcotest.failf "expected 1 histogram, got %d" (List.length l));
  teardown ()

let check_close msg expected actual =
  if Float.abs (expected -. actual) > 1e-9 then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

(* Known distribution 1..100: the {1,2,5} log buckets make the common
   quantiles land exactly (interpolation across a bucket of uniformly
   spread integers is exact). *)
let test_quantiles () =
  fresh ();
  let h = Obs.histogram "test.q" in
  for v = 1 to 100 do
    Obs.observe_h h (float_of_int v)
  done;
  check_int "count" 100 (Obs.hist_count h);
  check_close "p50" 50. (Obs.quantile h 0.5);
  check_close "p90" 90. (Obs.quantile h 0.9);
  check_close "p99" 99. (Obs.quantile h 0.99);
  check_close "p99.9" 99.9 (Obs.quantile h 0.999);
  check_close "p0 clamps to min" 1. (Obs.quantile h 0.);
  check_close "p100 clamps to max" 100. (Obs.quantile h 1.);
  (* single observation: every quantile is that value *)
  let h1 = Obs.histogram "test.q1" in
  Obs.observe_h h1 0.0042;
  check_close "singleton p50" 0.0042 (Obs.quantile h1 0.5);
  check_close "singleton p999" 0.0042 (Obs.quantile h1 0.999);
  check_close "empty histogram quantile" 0.
    (Obs.quantile (Obs.histogram "test.qe") 0.5);
  teardown ()

let test_snapshot_diff () =
  fresh ();
  let h = Obs.histogram "test.sw" in
  let c = Obs.counter "test.sc" in
  Obs.add c 10;
  for _ = 1 to 4 do
    Obs.observe_h h 1.0
  done;
  let s1 = Obs.Snapshot.take () in
  Obs.add c 5;
  for _ = 1 to 6 do
    Obs.observe_h h 3.0
  done;
  let s2 = Obs.Snapshot.take () in
  check_int "lifetime counter in snapshot" 15 (Obs.Snapshot.counter s2 "test.sc");
  let d = Obs.Snapshot.diff ~newer:s2 ~older:s1 in
  (* each take reads the fake clock exactly once; nothing in between does *)
  check_close "window duration" 1.0 d.Obs.Snapshot.s_duration;
  check_int "window counter delta" 5 (Obs.Snapshot.counter d "test.sc");
  check_close "window rate" 5.0 (Obs.Snapshot.rate d "test.sc");
  (match Obs.Snapshot.hist d "test.sw" with
  | None -> Alcotest.fail "windowed histogram missing"
  | Some wh ->
      check_int "window hist count" 6 wh.Obs.Snapshot.hs_count;
      check_close "window hist sum" 18. wh.Obs.Snapshot.hs_sum;
      (* all six window observations are 3.0, in the (2,5] bucket: the
         window quantile interpolates inside it, clamped to its bounds *)
      check_close "window p50 interpolates in-bucket" 3.5
        (Obs.Snapshot.quantile wh 0.5);
      check_close "window mean" 3. (Obs.Snapshot.mean wh));
  (* the JSON export round-trips *)
  let j = Obs.Snapshot.to_json d in
  check_bool "snapshot json round-trip" true
    (Json.parse (Json.to_string j) = j);
  teardown ()

let test_span_ring () =
  fresh ();
  Obs.set_span_capacity 64;
  for _ = 1 to 10_000 do
    Obs.with_span "s" (fun () -> ())
  done;
  check_int "retained spans bounded by capacity" 64
    (List.length (Obs.spans ()));
  check_int "dropped count" (10_000 - 64) (Obs.spans_dropped ());
  (match List.rev (Obs.spans ()) with
  | newest :: _ -> check_int "newest span retained" 9_999 newest.Obs.sp_seq
  | [] -> Alcotest.fail "ring empty");
  Obs.set_span_capacity 4096;
  teardown ()

let test_exemplars () =
  fresh ();
  Obs.set_exemplar_capacity 2;
  (* fast: 1 tick; mid: 3 ticks (one nested span); slow: 5 ticks *)
  Obs.with_trace ~trace:"fast" (fun () -> Obs.with_span "r" (fun () -> ()));
  Obs.with_trace ~trace:"mid" (fun () ->
      Obs.with_span "r" (fun () -> Obs.with_span "i" (fun () -> ())));
  Obs.with_trace ~trace:"slow" (fun () ->
      Obs.with_span "r" (fun () ->
          Obs.with_span "i1" (fun () -> ());
          Obs.with_span "i2" (fun () -> ())));
  (* untraced spans never become exemplars *)
  Obs.with_span "untraced" (fun () -> ());
  (match Obs.exemplars () with
  | [ a; b ] ->
      check_string "slowest first" "slow" a.Obs.ex_trace;
      check_close "slow root duration" 5. a.Obs.ex_dur;
      check_int "slow tree has all three spans" 3 (List.length a.Obs.ex_spans);
      (match List.rev a.Obs.ex_spans with
      | root :: _ -> check_string "root last" "r" root.Obs.sp_name
      | [] -> Alcotest.fail "empty exemplar tree");
      check_string "second slowest kept" "mid" b.Obs.ex_trace;
      check_bool "fast evicted by capacity" true (b.Obs.ex_trace <> "fast")
  | l -> Alcotest.failf "expected 2 exemplars, got %d" (List.length l));
  (* spans carry the trace id *)
  check_bool "spans tagged with trace" true
    (List.exists (fun sp -> sp.Obs.sp_trace = "slow") (Obs.spans ()));
  Obs.set_exemplar_capacity 8;
  teardown ()

(* Satellite: a reset on one domain must clear the span depth another
   domain holds mid-span — stale depths would skew all later nesting. *)
let test_reset_versions_domain_depth () =
  fresh ();
  let m = Mutex.create () in
  let cv = Condition.create () in
  let stage = ref 0 in
  let advance s =
    Mutex.lock m;
    stage := s;
    Condition.broadcast cv;
    Mutex.unlock m
  in
  let await s =
    Mutex.lock m;
    while !stage < s do
      Condition.wait cv m
    done;
    Mutex.unlock m
  in
  let d =
    Domain.spawn (fun () ->
        Obs.with_span "outer" (fun () ->
            advance 1;
            await 2;
            (* this domain still holds depth 1 from before the reset *)
            Obs.with_span "x" (fun () -> ())))
  in
  await 1;
  Obs.reset ();
  advance 2;
  Domain.join d;
  (match
     List.find_opt (fun sp -> sp.Obs.sp_name = "x") (Obs.spans ())
   with
  | Some x -> check_int "depth restarts at 0 after reset" 0 x.Obs.sp_depth
  | None -> Alcotest.fail "span x not recorded after reset");
  teardown ()

(* Satellite: write_file goes through temp-file + rename. *)
let test_write_file_atomic () =
  let path = Filename.temp_file "tenet_obs" ".json" in
  Obs.write_file path "{}";
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  check_string "contents written with trailing newline" "{}\n" contents;
  check_bool "no temp residue" false (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path

(* --- Prometheus exposition --- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A miniature promtool: every sample's metric family has a TYPE line,
   histogram buckets are cumulative and end at a +Inf bucket equal to
   _count.  scripts/ci.sh runs the same lint (in awk) on a live scrape. *)
let lint_prometheus (text : string) : unit =
  let typed : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun l ->
      if String.length l >= 7 && String.sub l 0 7 = "# TYPE " then
        match String.split_on_char ' ' l with
        | [ _; _; name; kind ] -> Hashtbl.replace typed name kind
        | _ -> Alcotest.failf "malformed TYPE line %S" l)
    lines;
  let strip s suf =
    if Filename.check_suffix s suf then Some (Filename.chop_suffix s suf)
    else None
  in
  let family metric =
    match
      List.find_map
        (fun suf ->
          match strip metric suf with
          | Some base when Hashtbl.find_opt typed base = Some "histogram" ->
              Some base
          | _ -> None)
        [ "_bucket"; "_sum"; "_count" ]
    with
    | Some base -> base
    | None -> metric
  in
  let last_cum = Hashtbl.create 16 in
  List.iter
    (fun l ->
      if l <> "" && l.[0] <> '#' then begin
        let metric =
          match String.index_opt l '{' with
          | Some i -> String.sub l 0 i
          | None -> (
              match String.index_opt l ' ' with
              | Some i -> String.sub l 0 i
              | None -> l)
        in
        let fam = family metric in
        if not (Hashtbl.mem typed fam) then
          Alcotest.failf "sample %S has no TYPE line (family %s)" l fam;
        (* cumulative bucket check *)
        match strip metric "_bucket" with
        | Some base -> (
            match String.rindex_opt l ' ' with
            | Some i ->
                let v =
                  float_of_string
                    (String.sub l (i + 1) (String.length l - i - 1))
                in
                let prev =
                  Option.value ~default:0.
                    (Hashtbl.find_opt last_cum base)
                in
                if v < prev then
                  Alcotest.failf "bucket series for %s not cumulative" base;
                Hashtbl.replace last_cum base v
            | None -> ())
        | None -> ()
      end)
    lines

let test_prometheus_exposition () =
  fresh ();
  Obs.count ~by:3 "pm.c";
  Obs.observe "pm.h" 0.0015;
  Obs.observe "pm.h" 1.5;
  let text = Obs.prometheus ~extra_counters:[ ("pm_x", 7) ]
      ~gauges:[ ("pm_g", 2.5) ] ()
  in
  check_bool "gauge typed" true (contains ~sub:"# TYPE pm_g gauge\n" text);
  check_bool "gauge sample" true (contains ~sub:"\npm_g 2.5\n" text);
  check_bool "counter gets _total suffix and type" true
    (contains ~sub:"# TYPE pm_c_total counter\n" text);
  check_bool "counter sample" true (contains ~sub:"\npm_c_total 3\n" text);
  check_bool "extra counter rendered" true
    (contains ~sub:"\npm_x_total 7\n" text);
  check_bool "histogram typed (name sanitized)" true
    (contains ~sub:"# TYPE pm_h histogram\n" text);
  (* 0.0015 lands in le=0.002, 1.5 in le=2: cumulative counts 1 then 2 *)
  check_bool "first bucket cumulative count" true
    (contains ~sub:"pm_h_bucket{le=\"0.002\"} 1\n" text);
  check_bool "later bucket accumulates" true
    (contains ~sub:"pm_h_bucket{le=\"2\"} 2\n" text);
  check_bool "+Inf bucket equals count" true
    (contains ~sub:"pm_h_bucket{le=\"+Inf\"} 2\n" text);
  check_bool "sum sample" true (contains ~sub:"\npm_h_sum 1.5015\n" text);
  check_bool "count sample" true (contains ~sub:"\npm_h_count 2\n" text);
  lint_prometheus text;
  teardown ()

let test_disabled_noop () =
  Obs.disable ();
  install_fake_clock ();
  Obs.reset ();
  (* reset leaves telemetry disabled; nothing below may record *)
  let c = Obs.counter "test.disabled" in
  Obs.incr c;
  Obs.add c 100;
  Obs.count ~by:7 "test.disabled";
  Obs.observe "test.disabled.h" 1.;
  let calls = ref 0 in
  let r =
    Obs.with_span "test.disabled.span" (fun () ->
        incr calls;
        "ok")
  in
  check_string "thunk still runs and returns" "ok" r;
  check_int "thunk runs exactly once" 1 !calls;
  check_int "counter untouched" 0 (Obs.value c);
  check_int "no spans recorded" 0 (List.length (Obs.spans ()));
  check_int "no histograms recorded" 0 (List.length (Obs.histograms ()))

(* --- JSON exporters --- *)

let test_trace_shape () =
  fresh ();
  Obs.with_span "a" (fun () -> ());
  Obs.count ~by:3 "test.trace.c";
  let j = Obs.chrome_trace () in
  (* the whole document parses back identically: valid JSON *)
  let s = Json.to_string j in
  check_bool "trace round-trips through the parser" true (Json.parse s = j);
  let events = Option.get (Json.to_list (Option.get (Json.member "traceEvents" j))) in
  check_int "one X event + one C event" 2 (List.length events);
  let x = List.nth events 0 and c = List.nth events 1 in
  check_bool "X event" true (Json.member "ph" x = Some (Json.String "X"));
  check_bool "X named" true (Json.member "name" x = Some (Json.String "a"));
  (* fake clock: span opens at 1s after epoch, lasts 1s -> microseconds *)
  check_bool "deterministic ts" true
    (Json.member "ts" x = Some (Json.Float 1_000_000.));
  check_bool "deterministic dur" true
    (Json.member "dur" x = Some (Json.Float 1_000_000.));
  check_bool "C event carries the counter" true
    (Json.member "args" c = Some (Json.Obj [ ("value", Json.Int 3) ]));
  teardown ()

let test_stats_shape () =
  fresh ();
  Obs.with_span "a" (fun () -> Obs.with_span "b" (fun () -> ()));
  Obs.count ~by:2 "test.stats.c";
  let j = Obs.stats () in
  let counters = Option.get (Json.member "counters" j) in
  check_bool "counter exported" true
    (Json.member "test.stats.c" counters = Some (Json.Int 2));
  let spans = Option.get (Json.member "spans" j) in
  (match Json.member "a" spans with
  | Some sa ->
      check_bool "span call count" true (Json.member "calls" sa = Some (Json.Int 1));
      (* a wraps b; fake clock gives it 3 ticks *)
      check_bool "span total deterministic" true
        (Json.member "total_s" sa = Some (Json.Float 3.))
  | None -> Alcotest.fail "span 'a' missing from stats");
  check_bool "stats round-trip" true
    (Json.parse (Json.to_string ~pretty:true j) = j);
  teardown ()

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a \"quoted\"\n\ttab\\slash");
        ("i", Json.Int (-42));
        ("f", Json.Float 0.5);
        ("whole", Json.Float 3.0);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]);
      ]
  in
  check_bool "compact round-trip" true (Json.parse (Json.to_string v) = v);
  check_bool "pretty round-trip" true
    (Json.parse (Json.to_string ~pretty:true v) = v);
  check_bool "non-finite floats print as null" true
    (Json.to_string (Json.Float infinity) = "null");
  check_bool "unicode escape" true
    (Json.parse {|"a\u0041"|} = Json.String "aA")

let test_metrics_json_roundtrip () =
  (* the CLI --json path: metrics serialize to JSON that parses back and
     re-serializes identically (stable machine-readable output) *)
  let op = Ir.Kernels.gemm ~ni:4 ~nj:4 ~nk:4 in
  let spec = Arch.Repository.tpu_like ~n:2 ~bandwidth:4 () in
  let df = Df.Zoo.gemm_ij_p_ijk_t ~p:2 () in
  let m = M.Concrete.analyze spec op df in
  let j = M.Metrics.to_json m in
  let s = Json.to_string ~pretty:true j in
  let reparsed = Json.parse s in
  check_bool "parse(print(j)) = j" true (reparsed = j);
  check_string "print is stable across a round-trip" s
    (Json.to_string ~pretty:true reparsed);
  (* a few load-bearing fields *)
  check_bool "n_instances" true
    (Json.member "n_instances" j = Some (Json.Int 64));
  check_bool "per_tensor present" true
    (match Json.member "per_tensor" j with
    | Some (Json.List (_ :: _)) -> true
    | _ -> false)

(* --- end-to-end: instrumented engines actually record --- *)

let test_engines_record () =
  fresh ();
  let op = Ir.Kernels.gemm ~ni:4 ~nj:4 ~nk:4 in
  let spec = Arch.Repository.tpu_like ~n:2 ~bandwidth:4 () in
  let df = Df.Zoo.gemm_ij_p_ijk_t ~p:2 () in
  (* concrete engine: its PE-relation iteration hits the counting engine
     (drop the memoized relation so this analyze recomputes it) *)
  M.Concrete.clear_pred_cache ();
  ignore (M.Concrete.analyze spec op df);
  check_bool "count.bset_calls > 0" true
    (Obs.value (Obs.counter "count.bset_calls") > 0);
  check_int "concrete.analyses" 1 (Obs.value (Obs.counter "concrete.analyses"));
  (* relational engine: counts every volume relation *)
  ignore (M.Model.analyze spec op df);
  check_int "model.relational_analyses" 1
    (Obs.value (Obs.counter "model.relational_analyses"));
  check_bool "count.points_enumerated > 0" true
    (Obs.value (Obs.counter "count.points_enumerated") > 0);
  check_bool "volumes span recorded" true
    (List.exists (fun sp -> sp.Obs.sp_name = "model.volumes") (Obs.spans ()));
  (* dse: per-candidate counters *)
  let cands = Dse.candidates_2d op ~p:2 in
  ignore
    (Dse.search ~mode:Dse.Exhaustive ~objective:Dse.Latency spec op cands);
  check_int "dse.candidates_evaluated" (List.length cands)
    (Obs.value (Obs.counter "dse.candidates_evaluated"));
  teardown ()

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting & ordering" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
        ] );
      ( "counters",
        [
          Alcotest.test_case "aggregation" `Quick test_counter_aggregation;
          Alcotest.test_case "histograms" `Quick test_histograms;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "snapshot diff" `Quick test_snapshot_diff;
          Alcotest.test_case "disabled no-op" `Quick test_disabled_noop;
        ] );
      ( "service",
        [
          Alcotest.test_case "span ring buffer" `Quick test_span_ring;
          Alcotest.test_case "slow-request exemplars" `Quick test_exemplars;
          Alcotest.test_case "reset versions domain depth" `Quick
            test_reset_versions_domain_depth;
          Alcotest.test_case "atomic write_file" `Quick test_write_file_atomic;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_exposition;
        ] );
      ( "json",
        [
          Alcotest.test_case "chrome trace shape" `Quick test_trace_shape;
          Alcotest.test_case "stats shape" `Quick test_stats_shape;
          Alcotest.test_case "value round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "metrics round-trip" `Quick
            test_metrics_json_roundtrip;
        ] );
      ( "integration",
        [ Alcotest.test_case "engines record" `Quick test_engines_record ] );
    ]

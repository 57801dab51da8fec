(* Tests for tenet.serve: the versioned request/response API, the
   result cache, deadlines, the batch runner and the server loop.

   Determinism hooks used here:
   - Parallel.set_time_source installs a fake clock so deadline expiry
     is exact (each now() call advances the clock by a fixed step, so a
     1-step deadline always expires right after the first stage);
   - Parallel.set_queue_limit + a gate task that blocks the single
     worker make the overload path reproducible. *)

module Api = Tenet.Serve.Api
module Protocol = Tenet.Serve.Protocol
module Cache = Tenet.Serve.Cache
module Server = Tenet.Serve.Server
module Config = Tenet.Serve.Config
module Admission = Tenet.Serve.Admission
module Disk_cache = Tenet.Serve.Disk_cache
module Parallel = Tenet.Util.Parallel
module Json = Tenet.Obs.Json
module An = Tenet.Analysis
module M = Tenet.Model

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

let small_analyze ?(id = "") ?deadline_ms ?(sizes = [ 8; 8; 8 ]) () =
  {
    (Api.Request.default Api.Request.Analyze) with
    Api.Request.id;
    sizes;
    deadline_ms;
  }

(* --- request codec --- *)

(* Byte pins for the canonical encoding.  Fingerprints key the
   persistent disk cache, so a renamed, reordered or re-defaulted field
   would orphan every stored entry. *)
let default_wire cmd =
  {|{"api_version":1,"id":"","cmd":"|} ^ cmd
  ^ {|","kernel":"gemm","sizes":[64,64,64],"c_source":null,"arch":"tpu-8x8-systolic","bandwidth":null,"space":"i%8,j%8","time":"i/8,j/8,i%8+j%8+k","dataflow":null,"engine":"concrete","adjacency":"inner","window":1,"strict":false,"scale_dims":[],"params":[],"tensors":[],"search":"exhaustive","budget":null,"top":10,"deadline_ms":null,"priority":"normal","format":"json"}|}

(* One request with every field off its default. *)
let every_field_set =
  {
    (Api.Request.default Api.Request.Dse) with
    Api.Request.id = "all";
    kernel = "conv";
    sizes = [ 4; 2; 4; 4; 3; 3 ];
    c_source = Some "for (i = 0; i < 2; i++) Y[i] += A[i];";
    arch = "eyeriss-12x14";
    bandwidth = Some 16;
    space = "k%8,c%8";
    time = "k/8,c/8,ox";
    dataflow = Some "KC-P";
    engine = `Relational;
    adjacency = `Lex_step;
    window = 3;
    strict = true;
    scale_dims = [ "ox"; "oy" ];
    params = [ "k" ];
    tensors = [ "I"; "W" ];
    search = `Heuristic;
    budget = Some 7;
    top = 2;
    deadline_ms = Some 250;
    priority = `Low;
    format = `Prometheus;
  }

let every_field_wire =
  {|{"api_version":1,"id":"all","cmd":"dse","kernel":"conv","sizes":[4,2,4,4,3,3],"c_source":"for (i = 0; i < 2; i++) Y[i] += A[i];","arch":"eyeriss-12x14","bandwidth":16,"space":"k%8,c%8","time":"k/8,c/8,ox","dataflow":"KC-P","engine":"relational","adjacency":"lex","window":3,"strict":true,"scale_dims":["ox","oy"],"params":["k"],"tensors":["I","W"],"search":"heuristic","budget":7,"top":2,"deadline_ms":250,"priority":"low","format":"prometheus"}|}

let test_request_roundtrip_defaults () =
  let roundtrip r =
    match Api.Request.of_json (Api.Request.to_json r) with
    | Ok r' -> check_bool "roundtrip" true (r = r')
    | Error e -> Alcotest.fail (Api.Request.decode_error_message e)
  in
  List.iter
    (fun (cmd, name) ->
      let r = Api.Request.default cmd in
      check_string ("canonical " ^ name) (default_wire name)
        (Json.to_string (Api.Request.to_json r));
      (* [cmd] is the one required field, and default ids are empty *)
      roundtrip r)
    [
      (Api.Request.Analyze, "analyze");
      (Api.Request.Volumes, "volumes");
      (Api.Request.Dse, "dse");
      (Api.Request.Check, "check");
      (Api.Request.Stats, "stats");
    ];
  check_string "canonical, every field set" every_field_wire
    (Json.to_string (Api.Request.to_json every_field_set));
  roundtrip every_field_set

(* Every Table III triple: a request naming the subject's kernel, arch
   and zoo dataflow survives the codec unchanged. *)
let test_request_roundtrip_zoo () =
  let subjects = An.Checker.zoo_subjects () in
  check_bool "zoo is populated" true (List.length subjects >= 75);
  List.iteri
    (fun i (s : An.Checker.subject) ->
      let r =
        {
          (Api.Request.default Api.Request.Check) with
          Api.Request.id = Printf.sprintf "zoo-%d" i;
          kernel = s.An.Checker.s_kernel;
          arch = s.An.Checker.s_arch;
          dataflow = Some s.An.Checker.s_df.Tenet.Dataflow.Dataflow.name;
          adjacency = (if i mod 2 = 0 then `Inner_step else `Lex_step);
          engine = (if i mod 3 = 0 then `Relational else `Concrete);
          strict = i mod 5 = 0;
        }
      in
      (* through the actual wire format: string, not just Json.t *)
      let j = Json.parse (Json.to_string (Api.Request.to_json r)) in
      match Api.Request.of_json j with
      | Ok r' -> check_bool "roundtrip" true (r = r')
      | Error e ->
          Alcotest.fail (Api.Request.decode_error_message e))
    subjects

(* Decode error messages, byte for byte: [(request line, message)]. *)
let check_decode_errors cases =
  List.iter
    (fun (line, want) ->
      match Api.Request.of_json (Json.parse line) with
      | Ok _ -> Alcotest.failf "accepted %s" line
      | Error e ->
          check_string line want (Api.Request.decode_error_message e))
    cases

let test_request_unknown_field () =
  (* fields are decoded in input order and the first error wins; the
     version is only judged once every field decoded *)
  check_decode_errors
    [
      ({|{"cmd":"analyze","bogus":1}|}, {|unknown request field "bogus"|});
      ({|{"bogus":1,"window":0}|}, {|unknown request field "bogus"|});
      ({|{"window":0,"bogus":1}|}, {|field "window" must be >= 1|});
      ({|{"api_version":2,"bogus":1}|}, {|unknown request field "bogus"|});
    ]

let test_request_missing_cmd () =
  check_decode_errors
    [
      ({|{"id":"x"}|}, {|missing request field "cmd"|});
      ({|[1,2]|}, "a request must be a JSON object");
    ]

let test_request_bad_version () =
  (match
     Api.Request.of_json
       (Json.Obj [ ("cmd", Json.String "stats"); ("api_version", Json.Int 9) ])
   with
  | Error (Api.Request.Bad_version 9) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Bad_version 9");
  check_decode_errors
    [
      ( {|{"cmd":"stats","api_version":9}|},
        "unsupported api_version 9 (this server speaks version 1)" );
    ]

let test_request_type_mismatch () =
  check_decode_errors
    [
      (* wrong types, and a wrong list element *)
      ({|{"cmd":"analyze","kernel":3}|}, {|field "kernel" must be a string|});
      ( {|{"cmd":"analyze","window":"x"}|},
        {|field "window" must be an integer|} );
      ({|{"cmd":"analyze","strict":1}|}, {|field "strict" must be a boolean|});
      ( {|{"cmd":"analyze","sizes":8}|},
        {|field "sizes" must be a list of integers|} );
      ( {|{"cmd":"analyze","sizes":[8,"8",8]}|},
        {|field "sizes" must be an integer|} );
      ( {|{"cmd":"analyze","tensors":"A"}|},
        {|field "tensors" must be a list of strings|} );
      ( {|{"cmd":"analyze","tensors":["A",1]}|},
        {|field "tensors" must be a string|} );
      ( {|{"cmd":"analyze","budget":1.5}|},
        {|field "budget" must be an integer|} );
      ({|{"cmd":"analyze","engine":true}|}, {|field "engine" must be a string|});
      (* each minimum *)
      ({|{"cmd":"analyze","window":0}|}, {|field "window" must be >= 1|});
      ({|{"cmd":"dse","budget":0}|}, {|field "budget" must be >= 1|});
      ({|{"cmd":"dse","top":-1}|}, {|field "top" must be >= 0|});
      ( {|{"cmd":"analyze","deadline_ms":-1}|},
        {|field "deadline_ms" must be >= 0|} );
    ]

let test_fingerprint_ignores_inert_fields () =
  let a = small_analyze ~id:"a" ~deadline_ms:5 () in
  let b = small_analyze ~id:"b" () in
  check_string "same fingerprint" (Api.Request.fingerprint a)
    (Api.Request.fingerprint b);
  let c = small_analyze ~id:"a" ~sizes:[ 9; 8; 8 ] () in
  check_bool "sizes change it" true
    (Api.Request.fingerprint a <> Api.Request.fingerprint c);
  (* priority steers admission, never the result: same cache key *)
  let hi = { a with Api.Request.priority = `High } in
  check_string "priority blanked" (Api.Request.fingerprint a)
    (Api.Request.fingerprint hi);
  (* the disk-cache key, pinned: the canonical bytes with id,
     deadline_ms, priority and format at their defaults *)
  check_string "fingerprint bytes"
    {|{"api_version":1,"id":"","cmd":"dse","kernel":"conv","sizes":[4,2,4,4,3,3],"c_source":"for (i = 0; i < 2; i++) Y[i] += A[i];","arch":"eyeriss-12x14","bandwidth":16,"space":"k%8,c%8","time":"k/8,c/8,ox","dataflow":"KC-P","engine":"relational","adjacency":"lex","window":3,"strict":true,"scale_dims":["ox","oy"],"params":["k"],"tensors":["I","W"],"search":"heuristic","budget":7,"top":2,"deadline_ms":null,"priority":"normal","format":"json"}|}
    (Api.Request.fingerprint every_field_set)

let test_request_priority_codec () =
  (* encoded on the wire... *)
  check_bool "encoded" true
    (contains
       (Json.to_string
          (Api.Request.to_json
             { (small_analyze ()) with Api.Request.priority = `Low }))
       "\"priority\":\"low\"");
  (* ...decoded from it... *)
  (match
     Api.Request.of_json
       (Json.Obj
          [ ("cmd", Json.String "analyze"); ("priority", Json.String "high") ])
   with
  | Ok r -> check_bool "decoded high" true (r.Api.Request.priority = `High)
  | Error e -> Alcotest.fail (Api.Request.decode_error_message e));
  (* ...absent means normal... *)
  (match Api.Request.of_json (Json.Obj [ ("cmd", Json.String "analyze") ]) with
  | Ok r -> check_bool "default normal" true (r.Api.Request.priority = `Normal)
  | Error e -> Alcotest.fail (Api.Request.decode_error_message e));
  (* ...and unknown tiers are refused, naming the candidates; every enum
     field refuses unknown names the same way, listing the known names
     in wire order, plus a suggestion for a near miss *)
  check_decode_errors
    [
      ( {|{"cmd":"analyze","priority":"urgent"}|},
        "unknown priority urgent (known: high, normal, low)." );
      ( {|{"cmd":"analyze","priority":"hihg"}|},
        "unknown priority hihg (known: high, normal, low).  Did you mean \
         high?" );
      ( {|{"cmd":"analyse"}|},
        "unknown cmd analyse (known: analyze, volumes, dse, check, \
         stats).  Did you mean analyze?" );
      ( {|{"cmd":"analyze","engine":"concrte"}|},
        "unknown engine concrte (known: concrete, relational).  Did you \
         mean concrete?" );
      ( {|{"cmd":"analyze","adjacency":"lexx"}|},
        "unknown adjacency lexx (known: inner, lex).  Did you mean lex?" );
      ( {|{"cmd":"dse","search":"prunned"}|},
        "unknown search prunned (known: exhaustive, pruned, heuristic).  \
         Did you mean pruned?" );
      ( {|{"cmd":"stats","format":"jsno"}|},
        "unknown format jsno (known: json, prometheus).  Did you mean json?"
      );
    ]

(* --- config --- *)

let with_env (pairs : (string * string) list) (f : unit -> 'a) : 'a =
  let olds = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) pairs in
  List.iter (fun (k, v) -> Unix.putenv k v) pairs;
  Fun.protect
    ~finally:(fun () ->
      (* putenv "" reads back as absent through the None | Some ""
         cases in Config — the closest OCaml gets to unsetenv *)
      List.iter
        (fun (k, old) -> Unix.putenv k (Option.value old ~default:""))
        olds)
    f

let test_config_load () =
  check_int "default queue" 64 Config.default.Config.queue_limit;
  check_int "default workers" 1 Config.default.Config.workers;
  check_bool "no persistence by default" true
    (Config.default.Config.cache_dir = None);
  with_env
    [
      (Config.queue_env, "8");
      (Config.workers_env, "3");
      (Config.worker_jobs_env, "2");
      (Config.cache_dir_env, "/tmp/tenet-cache-test");
      (Config.shed_low_env, "2");
      (Config.shed_normal_env, "5");
    ]
    (fun () ->
      let c = Config.load () in
      check_int "env queue" 8 c.Config.queue_limit;
      check_int "env workers" 3 c.Config.workers;
      check_int "env worker jobs" 2 c.Config.worker_jobs;
      check_bool "env cache dir" true
        (c.Config.cache_dir = Some "/tmp/tenet-cache-test");
      check_bool "env shed low" true (c.Config.shed_low = Some 2);
      check_bool "env shed normal" true (c.Config.shed_normal = Some 5));
  with_env
    [ (Config.queue_env, "zap") ]
    (fun () ->
      match Config.load () with
      | _ -> Alcotest.fail "malformed queue env accepted"
      | exception Failure msg ->
          check_bool "names the variable" true
            (contains msg Config.queue_env))

let test_config_watermarks () =
  let d = Config.default in
  check_int "low defaults to queue/2" 32 (Config.shed_low_watermark d);
  check_int "normal defaults to the hard limit" 64
    (Config.shed_normal_watermark d);
  (* clamped into [1, queue] and ordered low <= normal whatever the raw
     configuration says *)
  let wild =
    { d with Config.queue_limit = 10; shed_low = Some 50; shed_normal = Some 3 }
  in
  check_int "low clamped to queue" 10 (Config.shed_low_watermark wild);
  check_int "normal >= low" 10 (Config.shed_normal_watermark wild);
  let tiny = { d with Config.queue_limit = 1 } in
  check_int "low floor is 1" 1 (Config.shed_low_watermark tiny);
  (match Config.validate { d with Config.queue_limit = 0 } with
  | () -> Alcotest.fail "queue_limit 0 validated"
  | exception Failure _ -> ());
  match Config.validate { d with Config.workers = 0 } with
  | () -> Alcotest.fail "workers 0 validated"
  | exception Failure _ -> ()

(* --- admission --- *)

let test_admission_decide () =
  let cfg =
    {
      Config.default with
      Config.queue_limit = 10;
      shed_low = Some 4;
      shed_normal = Some 8;
    }
  in
  let decide = Admission.decide cfg in
  check_bool "calm queue admits low" true
    (decide ~depth:0 ~priority:`Low = Admission.Admit);
  check_bool "low sheds at its watermark" true
    (decide ~depth:4 ~priority:`Low
    = Admission.Shed Admission.Low_priority);
  check_bool "normal rides past the low watermark" true
    (decide ~depth:4 ~priority:`Normal = Admission.Admit);
  check_bool "normal sheds at its watermark" true
    (decide ~depth:8 ~priority:`Normal
    = Admission.Shed Admission.Normal_priority);
  check_bool "high rides past every watermark" true
    (decide ~depth:9 ~priority:`High = Admission.Admit);
  check_bool "hard limit sheds high too" true
    (decide ~depth:10 ~priority:`High
    = Admission.Shed Admission.Hard_limit);
  check_bool "hard limit outranks the tiers" true
    (decide ~depth:10 ~priority:`Low
    = Admission.Shed Admission.Hard_limit);
  (* the hard-limit message keeps the legacy bytes *)
  check_string "legacy overload message"
    "work queue is full (limit 10); retry later or raise TENET_SERVE_QUEUE"
    (Admission.message cfg ~waited_ms:0. Admission.Hard_limit);
  (* expiry-in-queue needs a positive deadline actually exceeded *)
  check_bool "no deadline, no expiry" false
    (Admission.expired_in_queue ~deadline_ms:None ~waited_ms:1e6);
  check_bool "deadline 0 disables" false
    (Admission.expired_in_queue ~deadline_ms:(Some 0) ~waited_ms:1e6);
  check_bool "waited past it" true
    (Admission.expired_in_queue ~deadline_ms:(Some 5) ~waited_ms:6.);
  check_bool "still within it" false
    (Admission.expired_in_queue ~deadline_ms:(Some 5) ~waited_ms:4.)

let test_admission_counters () =
  if not (Tenet.Obs.enabled ()) then Tenet.Obs.enable ();
  let get k = List.assoc k (Admission.counts ()) in
  let low0 = get "low" and expired0 = get "expired" in
  Admission.note Admission.Low_priority;
  Admission.note Admission.Expired;
  check_int "low tier counted" (low0 + 1) (get "low");
  check_int "expired tier counted" (expired0 + 1) (get "expired")

(* --- metrics codec --- *)

(* Canonical bytes: parsing a metrics body and printing it again gives
   the same bytes.  The disk tier rests on this: it keeps a cached body
   only when its bytes re-encode so, and a hit is printed through the
   parsed value. *)
let test_metrics_roundtrip () =
  List.iter
    (fun (s : An.Checker.subject) ->
      let m =
        M.Concrete.analyze s.An.Checker.s_spec s.An.Checker.s_op
          s.An.Checker.s_df
      in
      let str = Json.to_string (M.Metrics.to_json m) in
      check_string "canonical bytes" str (Json.to_string (Json.parse str)))
    (match An.Checker.zoo_subjects () with
    | a :: b :: c :: d :: _ -> [ a; b; c; d ]
    | l -> l)

(* --- the cache --- *)

let test_cache_lru_eviction () =
  let c = Cache.create ~bytes:100 () in
  Cache.add c ~key:"a" ~size:40 "A";
  Cache.add c ~key:"b" ~size:40 "B";
  ignore (Cache.find c "a");
  (* a is now fresher than b; adding 40 more must evict b, not a *)
  Cache.add c ~key:"c" ~size:40 "C";
  check_bool "a kept" true (Cache.find c "a" = Some "A");
  check_bool "b evicted" true (Cache.find c "b" = None);
  check_bool "c kept" true (Cache.find c "c" = Some "C");
  let s = Cache.stats c in
  check_int "entries" 2 s.Cache.entries;
  check_int "bytes" 80 s.Cache.bytes;
  check_int "evictions" 1 s.Cache.evictions

let test_cache_oversized_and_disabled () =
  let c = Cache.create ~bytes:10 () in
  Cache.add c ~key:"big" ~size:11 "X";
  check_bool "oversized not stored" true (Cache.find c "big" = None);
  let off = Cache.create ~bytes:0 () in
  Cache.add off ~key:"k" ~size:1 "X";
  check_bool "disabled" true (Cache.find off "k" = None)

let test_cache_hit_byte_identical () =
  Api.clear_cache ();
  let r = small_analyze ~id:"dup" ~sizes:[ 12; 12; 12 ] () in
  let before = (Api.cache_tiers ()).Api.result.Cache.hits in
  let l1 = Protocol.response_line (Api.run r) in
  let l2 = Protocol.response_line (Api.run r) in
  check_string "byte-identical" l1 l2;
  check_int "one hit" (before + 1) (Api.cache_tiers ()).Api.result.Cache.hits;
  check_bool "a real payload" true (contains l1 "\"kind\":\"metrics\"")

(* --- the template cache tier --- *)

let metrics_of_response (resp : Api.Response.t) =
  match resp.Api.Response.body.Api.Response.payload with
  | Some (Api.Response.Metrics { metrics; forms; _ }) -> (metrics, forms)
  | _ -> Alcotest.fail "expected a metrics payload"

(* Two analyze requests differing only in the extents of the [params]
   dims share one compiled template; both answers are byte-identical to
   the param-free path, and the parametric responses carry closed
   forms. *)
let test_template_cache_tier () =
  Api.clear_cache ();
  check_int "tier starts empty" 0 (Api.cache_tiers ()).Api.template_entries;
  let parametric ~id sizes =
    {
      (small_analyze ~id ~sizes ()) with
      Api.Request.params = [ "i"; "j"; "k" ];
    }
  in
  let line1 = Protocol.response_line (Api.run (parametric ~id:"p1" [ 64; 64; 64 ])) in
  check_bool "closed forms rendered" true (contains line1 "closed_forms");
  let r2 = parametric ~id:"p2" [ 48; 40; 56 ] in
  let m2, forms2 = metrics_of_response (Api.run r2) in
  check_int "one template serves both sizes" 1 (Api.cache_tiers ()).Api.template_entries;
  check_bool "second size has forms too" true (forms2 <> []);
  let plain, no_forms =
    metrics_of_response (Api.run (small_analyze ~id:"p3" ~sizes:[ 48; 40; 56 ] ()))
  in
  check_bool "no params, no forms" true (no_forms = []);
  check_string "byte-identical to the concrete engine"
    (Json.to_string (M.Metrics.to_json plain))
    (Json.to_string (M.Metrics.to_json m2));
  (* params below the template's validity floor fall back to a concrete
     evaluation: correct answer, no forms *)
  let small, small_forms =
    metrics_of_response (Api.run (parametric ~id:"p4" [ 5; 5; 5 ]))
  in
  check_bool "fallback has no forms" true (small_forms = []);
  let plain_small, _ =
    metrics_of_response (Api.run (small_analyze ~id:"p5" ~sizes:[ 5; 5; 5 ] ()))
  in
  check_string "fallback byte-identical"
    (Json.to_string (M.Metrics.to_json plain_small))
    (Json.to_string (M.Metrics.to_json small));
  (* conflicting size-abstraction requests are refused, not guessed *)
  let conflict =
    {
      (small_analyze ~id:"p6" ()) with
      Api.Request.params = [ "i" ];
      scale_dims = [ "j" ];
    }
  in
  check_bool "params+scale_dims rejected" true
    (Api.Response.is_error (Api.run conflict));
  let unknown =
    { (small_analyze ~id:"p7" ()) with Api.Request.params = [ "q" ] }
  in
  check_bool "unknown param rejected" true
    (Api.Response.is_error (Api.run unknown))

(* More distinct [params] structures than the template tier holds: the
   tier flushes instead of growing, and each answer, fitted before or
   after a flush, is the bytes a fresh run gives. *)
let test_template_tier_bound () =
  let structure ~id ~i k =
    {
      (small_analyze ~id ~sizes:[ i; 4; k ] ()) with
      Api.Request.params = [ "i" ];
    }
  in
  let n = Api.template_capacity + 5 in
  let reqs =
    List.init n (fun k -> structure ~id:(Printf.sprintf "s%d" k) ~i:24 (k + 1))
    (* the first structures again, at a new size: their templates were
       flushed, so they are compiled and fitted anew *)
    @ List.init 3 (fun k ->
          structure ~id:(Printf.sprintf "again%d" k) ~i:32 (k + 1))
  in
  Api.clear_cache ();
  let lines =
    List.map
      (fun r ->
        let line = Protocol.response_line (Api.run r) in
        let held = (Api.cache_tiers ()).Api.template_entries in
        if held > Api.template_capacity then
          Alcotest.failf "%s: the tier holds %d templates (bound %d)"
            r.Api.Request.id held Api.template_capacity;
        line)
      reqs
  in
  check_bool "the first fit answers from its template" true
    (contains (List.hd lines) "closed_forms");
  List.iter2
    (fun r line ->
      Api.clear_cache ();
      check_string ("fresh run " ^ r.Api.Request.id) line
        (Protocol.response_line (Api.run r)))
    reqs lines

let test_errors_not_cached () =
  Api.clear_cache ();
  let r =
    { (small_analyze ~id:"bad" ()) with Api.Request.arch = "no-such-arch" }
  in
  let resp = Api.run r in
  check_bool "is error" true (Api.Response.is_error resp);
  check_int "nothing stored" 0 (Api.cache_tiers ()).Api.result.Cache.entries

(* --- the persistent tier --- *)

let temp_dir () =
  let path = Filename.temp_file "tenet-disk-cache" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let replace_all s ~sub ~by =
  let b = Buffer.create (String.length s) in
  let n = String.length s and m = String.length sub in
  let i = ref 0 in
  while !i <= n - m do
    if String.sub s !i m = sub then begin
      Buffer.add_string b by;
      i := !i + m
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.add_substring b s !i (n - !i);
  Buffer.contents b

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_disk_cache_roundtrip () =
  let dir = temp_dir () in
  check_bool "missing file loads empty" true (Disk_cache.load ~dir = []);
  let e k b = { Disk_cache.key = k; body = b } in
  Disk_cache.save ~dir [ e "b" "2"; e "a" "1" ];
  check_bool "roundtrip, sorted by key" true
    (Disk_cache.load ~dir = [ e "a" "1"; e "b" "2" ]);
  (* merge: union with the on-disk state, newcomers winning *)
  let n = Disk_cache.merge_save ~dir [ e "b" "2'"; e "c" "3" ] in
  check_int "merged size" 3 n;
  check_bool "newcomer wins, old keys survive" true
    (Disk_cache.load ~dir = [ e "a" "1"; e "b" "2'"; e "c" "3" ]);
  (* a torn tail (killed writer without the atomic rename) loads as the
     undamaged prefix *)
  let path = Filename.concat dir "results-v1.jsonl" in
  write_file path (read_file path ^ "{\"key\":\"d\",\"bo");
  check_bool "torn tail dropped" true
    (Disk_cache.load ~dir = [ e "a" "1"; e "b" "2'"; e "c" "3" ]);
  (* a foreign version header loads as empty, not an error *)
  write_file path "{\"tenet_disk_cache\":99}\n{\"key\":\"a\",\"body\":\"1\"}\n";
  check_bool "foreign version ignored" true (Disk_cache.load ~dir = [])

(* Cold restart with a warm disk cache: save, wipe memory, load, and the
   replayed response is byte-identical to the original run (the
   acceptance gate behind `tenet serve --cache-dir`). *)
let test_warm_restart_byte_identical () =
  Api.clear_cache ();
  let dir = temp_dir () in
  let r = small_analyze ~id:"persist" ~sizes:[ 13; 13; 13 ] () in
  let line1 = Protocol.response_line (Api.run r) in
  let saved = Api.save_disk_cache ~dir in
  check_bool "saved the entry" true (saved >= 1);
  Api.clear_cache ();
  check_int "memory is cold" 0 (Api.cache_tiers ()).Api.result.Cache.entries;
  let loaded = Api.load_disk_cache ~dir in
  check_int "loaded what was saved" saved loaded;
  let tiers = Api.cache_tiers () in
  check_int "stats report the load" loaded tiers.Api.disk_entries_loaded;
  check_bool "stats report the dir" true
    (tiers.Api.tiers_disk_dir = Some dir);
  let hits0 = (Api.cache_tiers ()).Api.result.Cache.hits in
  let line2 = Protocol.response_line (Api.run r) in
  check_string "byte-identical across restart" line1 line2;
  check_int "served from cache" (hits0 + 1) (Api.cache_tiers ()).Api.result.Cache.hits

(* Tampered or damaged entries are rejected at load, never replayed. *)
let test_disk_cache_tamper_rejected () =
  Api.clear_cache ();
  let dir = temp_dir () in
  ignore (Api.run (small_analyze ~id:"t" ~sizes:[ 14; 14; 14 ] ()));
  let saved = Api.save_disk_cache ~dir in
  check_bool "saved" true (saved >= 1);
  let path = Filename.concat dir "results-v1.jsonl" in
  (* flip every ok status inside the stored bodies: still valid JSON
     lines, no longer valid cache entries *)
  write_file path
    (replace_all (read_file path) ~sub:{|\"status\":\"ok\"|}
       ~by:{|\"status\":\"er\"|});
  Api.clear_cache ();
  check_int "tampered entries rejected" 0 (Api.load_disk_cache ~dir)

(* --- deadlines --- *)

(* A fake clock that advances one step per reading makes expiry exact:
   with a deadline shorter than one step, the poll after the first
   stage always fires. *)
let with_fake_clock f =
  let t = ref 0. in
  Parallel.set_time_source (fun () ->
      t := !t +. 1.;
      !t);
  Fun.protect
    ~finally:(fun () -> Parallel.set_time_source Unix.gettimeofday)
    f

let test_deadline_partial_volumes () =
  Api.clear_cache ();
  let r =
    {
      (Api.Request.default Api.Request.Volumes) with
      Api.Request.id = "dl";
      sizes = [ 8; 8; 8 ];
      deadline_ms = Some 1;
    }
  in
  let resp = with_fake_clock (fun () -> Api.run r) in
  let b = resp.Api.Response.body in
  check_string "status" "partial"
    (Api.Response.status_to_string b.Api.Response.status);
  check_bool "no raw error" true (b.Api.Response.error = None);
  (match b.Api.Response.payload with
  | Some (Api.Response.Volumes { tensors; _ }) ->
      (* gemm has three tensors; only the first stage ran *)
      check_int "finished tensors" 1 (List.length tensors)
  | _ -> Alcotest.fail "expected a volumes payload");
  (match
     List.find_opt
       (fun d -> d.An.Diagnostic.code = "TN013")
       b.Api.Response.diagnostics
   with
  | Some d ->
      check_bool "names skipped stages" true
        (contains d.An.Diagnostic.message "volumes[")
  | None -> Alcotest.fail "expected a TN013 diagnostic");
  (* partials are not cached: the same request without a deadline
     computes the full answer *)
  let full = Api.run { r with Api.Request.deadline_ms = None } in
  match full.Api.Response.body.Api.Response.payload with
  | Some (Api.Response.Volumes { tensors; _ }) ->
      check_int "full tensors" 3 (List.length tensors)
  | _ -> Alcotest.fail "expected a full volumes payload"

let test_deadline_all_stages_completed () =
  Api.clear_cache ();
  (* analyze without --strict has a single stage, which always runs:
     over-deadline but nothing skipped stays "ok" with a TN013 warning *)
  let r = small_analyze ~id:"dl-ok" ~deadline_ms:1 () in
  let resp = with_fake_clock (fun () -> Api.run r) in
  let b = resp.Api.Response.body in
  check_string "status" "ok"
    (Api.Response.status_to_string b.Api.Response.status);
  check_bool "payload present" true (b.Api.Response.payload <> None);
  check_bool "TN013 attached" true
    (List.exists
       (fun d -> d.An.Diagnostic.code = "TN013")
       b.Api.Response.diagnostics)

let test_deadline_ok_not_cached () =
  Api.clear_cache ();
  (* an over-deadline-but-complete "ok" body carries a timing-dependent
     TN013 warning; the fingerprint is deadline-blind, so caching it
     would replay the warning for a later identical request with a
     different (or no) deadline *)
  let r = small_analyze ~id:"dl-nc" ~deadline_ms:1 () in
  let _ = with_fake_clock (fun () -> Api.run r) in
  check_int "warned body not stored" 0 (Api.cache_tiers ()).Api.result.Cache.entries;
  let clean = Api.run { r with Api.Request.deadline_ms = None } in
  check_bool "no inherited TN013" true
    (not
       (List.exists
          (fun d -> d.An.Diagnostic.code = "TN013")
          clean.Api.Response.body.Api.Response.diagnostics));
  check_int "clean body stored" 1 (Api.cache_tiers ()).Api.result.Cache.entries

(* --- error classification --- *)

let test_error_classification () =
  (* an unknown iterator in the client's C source is the client's
     mistake: bad_request, not internal *)
  let r =
    {
      (Api.Request.default Api.Request.Analyze) with
      Api.Request.id = "cls";
      c_source =
        Some
          "for (i = 0; i < 4; i++)\n\
           for (j = 0; j < 4; j++)\n\
           for (k = 0; k < 4; k++)\n\
           Y[i][j] += A[i][z] * B[k][j];";
    }
  in
  (match Api.run r with
  | { Api.Response.body = { Api.Response.error = Some (kind, _); _ }; _ } ->
      check_string "kind" "bad_request"
        (Api.Response.error_kind_to_string kind)
  | _ -> Alcotest.fail "expected an error response");
  (* an unknown scale dim likewise *)
  let r =
    { (small_analyze ~id:"sd" ()) with Api.Request.scale_dims = [ "zz" ] }
  in
  match Api.run r with
  | {
      Api.Response.body = { Api.Response.error = Some (kind, msg); _ };
      _;
    } ->
      check_string "kind" "bad_request"
        (Api.Response.error_kind_to_string kind);
      check_bool "names the dim" true (contains msg "zz")
  | _ -> Alcotest.fail "expected an error response"

(* Code spaces past the int range are the client's mistake too: a
   bad_request naming the space, never an ok with wrapped codes (which
   the caches would keep) or an internal error. *)
let test_wide_codes_bad_request () =
  let expect what (r : Api.Request.t) want =
    match Api.run r with
    | {
        Api.Response.body = { Api.Response.error = Some (kind, msg); _ };
        _;
      } ->
        check_string (what ^ ": kind") "bad_request"
          (Api.Response.error_kind_to_string kind);
        check_string (what ^ ": message") want msg
    | _ -> Alcotest.failf "%s: expected an error response" what
  in
  expect "wide time"
    {
      (small_analyze ~id:"wt" ~sizes:[ 4; 4; 4 ] ()) with
      Api.Request.space = "i,j";
      time = "2147483648*k,2147483648*i,2147483648*j";
    }
    "invalid dataflow: (request): time-stamp space of 6442450945 x \
     6442450945 x 6442450945 codes is past the int range";
  let wide_c =
    "for (i = 0; i < 4; i++)\n\
     for (j = 0; j < 4; j++)\n\
     for (k = 0; k < 4; k++)\n\
     Y[2147483648*i + j][2147483648*j + i] += A[i][k] * B[k][j];"
  in
  let elt_msg =
    "invalid dataflow: tensor Y: element space of 6442450948 x 6442450948 \
     codes is past the int range"
  in
  expect "wide element"
    {
      (Api.Request.default Api.Request.Analyze) with
      Api.Request.id = "we";
      c_source = Some wide_c;
      space = "i,j";
      time = "k";
    }
    elt_msg;
  expect "wide element dse"
    {
      (Api.Request.default Api.Request.Dse) with
      Api.Request.id = "wd";
      c_source = Some wide_c;
    }
    elt_msg;
  (* instance counts past the int range used to wrap (the conv's 2^66 to
     0) and crash the walk with an index error, an internal error *)
  expect "wrapping gemm"
    {
      (small_analyze ~id:"wg" ~sizes:[ 1073741824; 1073741824; 8 ] ()) with
      Api.Request.space = "i%8,j%8";
      time = "i/8,j/8,k";
    }
    "invalid dataflow: instance space of 1073741824 x 1073741824 x 8 codes \
     is past the int range";
  let conv_msg =
    "invalid dataflow: instance space of 8192 x 8192 x 8192 x 8192 x 128 x \
     128 codes is past the int range"
  in
  let conv cmd id =
    {
      (Api.Request.default cmd) with
      Api.Request.id;
      kernel = "conv";
      sizes = [ 8192; 8192; 8192; 8192; 128; 128 ];
      space = "k%8,c%8";
      time = "k/8,c/8,ox,oy,rx,ry";
    }
  in
  expect "wrapping conv" (conv Api.Request.Analyze "wc") conv_msg;
  expect "wrapping conv dse" (conv Api.Request.Dse "wcd") conv_msg;
  (* so do the relational paths: their counts would wrap, and walking
     the 2^66 pairs would not end *)
  expect "wrapping conv volumes" (conv Api.Request.Volumes "wcv") conv_msg;
  expect "wrapping conv relational"
    { (conv Api.Request.Analyze "wcr") with Api.Request.engine = `Relational }
    conv_msg

(* A malformed or non-affine stamp expression is the client's mistake:
   bad_request, never an internal error from the engine that trips on
   it, and never an answer: every command and engine refuses a
   non-affine stamp with the same text, so the result cache never holds
   an ok for one.  Where the parser sees the error, the message names
   its offset. *)
let test_expression_errors_bad_request () =
  let stamp ?(cmd = Api.Request.Analyze) ?(space = "i%8,j%8")
      ?(time = "i/8,j/8,k") ?(params = []) ?(engine = `Concrete) id =
    {
      (Api.Request.default cmd) with
      Api.Request.id;
      sizes = [ 16; 16; 16 ];
      space;
      time;
      params;
      engine;
    }
  in
  let expect what (r : Api.Request.t) ~prefix =
    match Api.run r with
    | {
        Api.Response.body = { Api.Response.error = Some (kind, msg); _ };
        _;
      } ->
        check_string (what ^ ": kind") "bad_request"
          (Api.Response.error_kind_to_string kind);
        check_bool (what ^ ": " ^ msg) true (String.starts_with ~prefix msg);
        if prefix = "parse error:" then
          check_bool (what ^ ": offset in " ^ msg) true
            (contains msg "at offset")
    | _ -> Alcotest.failf "%s: expected an error response" what
  in
  let parse = "parse error:" and nonaffine = "non-affine expression:" in
  expect "i%0" (stamp ~space:"i%0,j%8" "m0") ~prefix:parse;
  expect "i/0" (stamp ~time:"i/0,j/8,k" "d0") ~prefix:parse;
  expect "i%0 with params"
    (stamp ~space:"i%0,j%8" ~params:[ "i" ] "m0p")
    ~prefix:parse;
  expect "check i%0"
    (stamp ~cmd:Api.Request.Check ~space:"i%0,j%8" "m0c")
    ~prefix:parse;
  expect "volumes i%0"
    (stamp ~cmd:Api.Request.Volumes ~space:"i%0,j%8" "m0v")
    ~prefix:parse;
  expect "i%-8" (stamp ~space:"i%-8,j%8" "mn") ~prefix:parse;
  expect "i/-8" (stamp ~time:"i/-8,j/8,k" "dn") ~prefix:parse;
  expect "literal past the int range"
    (stamp ~time:"i/9223372036854775807,j/8,k" "big")
    ~prefix:parse;
  expect "C loop bound past the int range"
    {
      (stamp "cbig") with
      Api.Request.c_source =
        Some
          "for (i = 0; i < 99999999999999999999; i++) for (j = 0; j < 8; \
           j++) for (k = 0; k < 8; k++) Y[i][j] += A[i][k] * B[k][j];";
    }
    ~prefix:"C syntax error: integer literal";
  List.iter
    (fun time ->
      List.iter
        (fun (what, r) ->
          (* twice: an ok kept by the result cache would answer the
             second *)
          expect (what ^ " " ^ time) r ~prefix:nonaffine;
          expect (what ^ " " ^ time ^ " again") r ~prefix:nonaffine)
        [
          ("analyze", stamp ~time "na");
          ("params", stamp ~params:[ "i" ] ~time "np");
          ("check", stamp ~cmd:Api.Request.Check ~time "nc");
          ("volumes", stamp ~cmd:Api.Request.Volumes ~time "nv");
          ("relational", stamp ~engine:`Relational ~time "nr");
        ])
    [ "i/8,j/8,k*k"; "i/8,j/8,abs(k)" ]

(* One validity gate: each invalid dataflow is refused with the same
   message by every request path that answers for it at its size —
   the concrete and relational engines, a params template, scale_dims
   and volumes — and never with an ok the result cache would keep, so
   each request goes twice. *)
let test_validity_gate () =
  List.iter
    (fun (case, arch, sizes, space, time, reason) ->
      let req ?(cmd = Api.Request.Analyze) ?(engine = `Concrete)
          ?(params = []) ?(scale_dims = []) path =
        {
          (Api.Request.default cmd) with
          Api.Request.id = case ^ " " ^ path;
          arch;
          sizes;
          space;
          time;
          engine;
          params;
          scale_dims;
        }
      in
      let message = "invalid dataflow: (request): " ^ reason in
      List.iter
        (fun r ->
          for _ = 1 to 2 do
            match Api.run r with
            | {
             Api.Response.body = { Api.Response.error = Some (kind, msg); _ };
             _;
            } ->
                check_string (r.Api.Request.id ^ ": kind") "bad_request"
                  (Api.Response.error_kind_to_string kind);
                check_string r.Api.Request.id message msg
            | _ -> Alcotest.failf "%s: expected a refusal" r.Api.Request.id
          done)
        [
          req "concrete";
          req ~engine:`Relational "relational";
          req ~params:[ "k" ] "params";
          req ~scale_dims:[ "k" ] "scale_dims";
          req ~cmd:Api.Request.Volumes "volumes";
        ])
    [
      ( "rank",
        "tpu-8x8-systolic",
        [ 16; 16; 16 ],
        "i%8",
        "i/8,j,k",
        "space-stamp rank 1 vs PE array rank 2" );
      ( "containment",
        "tpu-8x8-systolic",
        [ 16; 8; 8 ],
        "i%16,j%8",
        "i/16,j/8,k",
        "space dim 0 spans [0, 15] outside [0, 8)" );
      ( "conflict",
        "tpu-8x8-systolic",
        [ 8; 8; 8 ],
        "i%8,j%8",
        "j",
        "two instances share a spacetime-stamp" );
      ( "containment at full size",
        "systolic-64x1",
        [ 4; 4; 100 ],
        "k",
        "i,j",
        "space dim 0 spans [0, 99] outside [0, 64)" );
    ]

(* --- the pool: a raising task must not kill its worker --- *)

let test_worker_survives_raising_task () =
  Parallel.set_queue_limit max_int;
  (* pre-fix, the sole worker domain died on the exception and the
     follow-up task was never drained *)
  check_bool "raising task submitted" true
    (Parallel.try_submit (fun () -> failwith "boom"));
  (* earlier tests may have grown the pool; poison every worker so the
     follow-up cannot dodge the dead one *)
  for _ = 2 to Parallel.spawned_workers () do
    ignore (Parallel.try_submit (fun () -> failwith "boom"))
  done;
  let hit = Atomic.make false in
  check_bool "follow-up submitted" true
    (Parallel.try_submit (fun () -> Atomic.set hit true));
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Atomic.get hit)) && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  check_bool "worker survived the exception" true (Atomic.get hit)

(* --- protocol --- *)

let test_protocol_malformed_line () =
  (match Protocol.parse_request "not json at all" with
  | Ok _ -> Alcotest.fail "parsed garbage"
  | Error resp ->
      check_bool "is error" true (Api.Response.is_error resp);
      check_bool "offset in message" true
        (contains (Protocol.response_line resp) "at "));
  check_bool "comment" true (Protocol.is_comment "# note");
  check_bool "blank" true (Protocol.is_comment "   ");
  check_bool "not comment" false (Protocol.is_comment "{}")

let test_protocol_id_recovery () =
  let resp = Protocol.handle_line {|{"id":"x7","cmd":"analyze","bogus":1}|} in
  check_string "id echoed" "x7" resp.Api.Response.id;
  check_bool "bad_request" true
    (contains (Protocol.response_line resp) "bad_request")

(* --- batch --- *)

let mixed_lines =
  [
    {|{"cmd":"analyze","id":"a1","sizes":[8,8,8]}|};
    {|# a comment line|};
    {|{"cmd":"check","id":"c1","sizes":[8,8,8]}|};
    {|{"cmd":"volumes","id":"v1","sizes":[8,8,8],"tensors":["A"]}|};
    {|this line is not JSON|};
    {|{"cmd":"analyze","id":"a2","sizes":[8,8,8]}|};
    {|{"cmd":"analyze","id":"bad","space":"i%%%"}|};
    {|{"cmd":"analyze","id":"uf","frobnicate":true}|};
    {|{"cmd":"analyze","id":"a1-dup","sizes":[8,8,8]}|};
  ]

let run_batch_to_string lines =
  let in_file = Filename.temp_file "tenet_batch" ".jsonl" in
  let out_file = Filename.temp_file "tenet_batch" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove in_file;
      Sys.remove out_file)
    (fun () ->
      let oc = open_out in_file in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      close_out oc;
      let ic = open_in in_file and oc = open_out out_file in
      Server.run_batch Config.default ic oc;
      close_in ic;
      close_out oc;
      let ic = open_in out_file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s)

let test_batch_matches_oneshot () =
  Api.clear_cache ();
  let batched = run_batch_to_string mixed_lines in
  Api.clear_cache ();
  let oneshot =
    List.filter_map
      (fun l ->
        if Protocol.is_comment l then None
        else Some (Protocol.response_line (Protocol.handle_line l) ^ "\n"))
      mixed_lines
    |> String.concat ""
  in
  check_string "batch = one-shot" oneshot batched

let test_batch_deterministic_across_jobs () =
  let saved = Parallel.jobs () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_jobs saved)
    (fun () ->
      Api.clear_cache ();
      Parallel.set_jobs 1;
      let seq = run_batch_to_string mixed_lines in
      Api.clear_cache ();
      Parallel.set_jobs 4;
      let par = run_batch_to_string mixed_lines in
      check_string "jobs=1 = jobs=4" seq par)

(* --- the server loop: overload and drain --- *)

let test_serve_overload () =
  Api.clear_cache ();
  let saved = Parallel.jobs () in
  Fun.protect
    ~finally:(fun () ->
      Parallel.set_queue_limit max_int;
      Parallel.set_jobs saved)
    (fun () ->
      Parallel.set_jobs 1;
      Parallel.set_queue_limit 64;
      (* Earlier tests in this binary may have spawned extra worker
         domains (they live for the rest of the process), so block EVERY
         worker on a gate we control — otherwise a free worker could
         drain q1 before the server tries to submit q2, and no refusal
         would ever be produced. *)
      let gate = Atomic.make false in
      let n_started = Atomic.make 0 in
      let gate_task () =
        Atomic.incr n_started;
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done
      in
      Fun.protect
        ~finally:(fun () -> Atomic.set gate true)
        (fun () ->
          (* the first submission also spawns the pool if needed *)
          check_bool "gate submitted" true (Parallel.try_submit gate_task);
          while Atomic.get n_started < 1 do
            Domain.cpu_relax ()
          done;
          let total = Parallel.spawned_workers () in
          for _ = 2 to total do
            check_bool "extra gate submitted" true
              (Parallel.try_submit gate_task)
          done;
          while Atomic.get n_started < total do
            Domain.cpu_relax ()
          done;
          (* every worker is busy and the queue is empty; serve with
             limit 1: req1 queues, req2 must be refused, stats answers
             inline *)
          let req_in, req_out = Unix.pipe () in
          let resp_in, resp_out = Unix.pipe () in
          let server =
            Domain.spawn (fun () ->
                let ic = Unix.in_channel_of_descr req_in in
                let oc = Unix.out_channel_of_descr resp_out in
                Server.session
                  { Config.default with Config.queue_limit = 1 }
                  ic oc;
                close_out oc)
          in
          let oc = Unix.out_channel_of_descr req_out in
          output_string oc
            ({|{"cmd":"analyze","id":"q1","sizes":[8,8,8]}|} ^ "\n"
            ^ {|{"cmd":"analyze","id":"q2","sizes":[9,9,9]}|} ^ "\n"
            ^ {|{"cmd":"stats","id":"s"}|} ^ "\n");
          close_out oc;
          let ic = Unix.in_channel_of_descr resp_in in
          (* q2's refusal and the inline stats answer arrive while q1 is
             still stuck behind the gate *)
          let l1 = input_line ic in
          let l2 = input_line ic in
          check_bool "q2 overloaded" true
            (contains l1 "\"id\":\"q2\"" && contains l1 "overloaded");
          check_bool "stats inline" true
            (contains l2 "\"id\":\"s\"" && contains l2 "\"kind\":\"stats\"");
          (* release the gate: q1 completes and EOF drain lets serve
             return *)
          Atomic.set gate true;
          let l3 = input_line ic in
          check_bool "q1 completed" true
            (contains l3 "\"id\":\"q1\"" && contains l3 "\"status\":\"ok\"");
          Domain.join server;
          close_in ic))

(* --- stats --- *)

let test_stats_request () =
  let resp = Api.run (Api.Request.default Api.Request.Stats) in
  match resp.Api.Response.body.Api.Response.payload with
  | Some (Api.Response.Stats j) ->
      (* one structured section for every cache tier *)
      (match Json.member "caches" j with
      | Some c ->
          check_bool "result tier" true (Json.member "result" c <> None);
          check_bool "template tier" true (Json.member "template" c <> None);
          check_bool "disk tier" true (Json.member "disk" c <> None)
      | None -> Alcotest.fail "caches section missing");
      (match Json.member "pool" j with
      | Some p ->
          check_bool "running gauge" true (Json.member "running" p <> None)
      | None -> Alcotest.fail "pool section missing");
      (match Json.member "queue" j with
      | Some q ->
          check_bool "shed tiers" true (Json.member "shed" q <> None)
      | None -> Alcotest.fail "queue section missing")
  | _ -> Alcotest.fail "expected a stats payload"

(* --- observability: windows, prometheus, access log, tracing --- *)

module Obs = Tenet.Obs
module Access_log = Tenet.Serve.Access_log

let stats_json () =
  match
    (Api.run (Api.Request.default Api.Request.Stats)).Api.Response.body
      .Api.Response.payload
  with
  | Some (Api.Response.Stats j) -> j
  | _ -> Alcotest.fail "expected a stats payload"

let test_stats_window () =
  if not (Obs.enabled ()) then Obs.enable ();
  Api.clear_cache ();
  (* first JSON scrape arms (or re-arms) the window *)
  ignore (stats_json ());
  let r = small_analyze ~id:"w1" ~sizes:[ 10; 10; 10 ] () in
  ignore (Api.run r);
  ignore (Api.run r) (* cache hit *);
  let j = stats_json () in
  match Json.member "window" j with
  | None -> Alcotest.fail "second scrape must carry a window"
  | Some w ->
      (match Json.member "requests" w with
      | Some (Json.Int n) ->
          check_bool "window counts this window's requests" true (n >= 2)
      | _ -> Alcotest.fail "window.requests missing");
      check_bool "window has a rate" true
        (Json.member "request_rate_rps" w <> None);
      (match Json.member "cache_hit_ratio" w with
      | Some (Json.Float f) ->
          check_bool "hit ratio in (0,1): one hit, one miss" true
            (f > 0. && f < 1.)
      | _ -> Alcotest.fail "window.cache_hit_ratio missing");
      (match Json.member "latency_ms" w with
      | Some lm -> check_bool "window p99" true (Json.member "p99_ms" lm <> None)
      | None -> Alcotest.fail "window.latency_ms missing")

let test_stats_prometheus () =
  if not (Obs.enabled ()) then Obs.enable ();
  Api.clear_cache ();
  ignore (Api.run (small_analyze ~id:"pm1" ~sizes:[ 11; 11; 11 ] ()));
  (* through the wire format, as a client would ask *)
  let resp =
    Protocol.handle_line {|{"cmd":"stats","id":"pm","format":"prometheus"}|}
  in
  match resp.Api.Response.body.Api.Response.payload with
  | Some (Api.Response.Stats j) ->
      check_bool "payload says prometheus" true
        (Json.member "format" j = Some (Json.String "prometheus"));
      let text =
        match Json.member "exposition" j with
        | Some (Json.String s) -> s
        | _ -> Alcotest.fail "exposition missing"
      in
      check_bool "request counter" true
        (contains text "# TYPE serve_requests_total counter");
      check_bool "latency histogram typed" true
        (contains text "# TYPE serve_request_latency histogram");
      check_bool "latency buckets" true
        (contains text "serve_request_latency_bucket{le=");
      check_bool "+Inf bucket" true
        (contains text "serve_request_latency_bucket{le=\"+Inf\"}");
      check_bool "queue depth gauge" true
        (contains text "# TYPE serve_queue_depth gauge");
      check_bool "cache bytes gauge" true (contains text "serve_cache_bytes ")
  | _ -> Alcotest.fail "expected a stats payload"

(* Queue wait is measured in the serve loop (submit -> execution), so it
   only records through a real serve session. *)
let test_queue_wait_recorded () =
  Api.clear_cache ();
  let before = Obs.hist_count (Obs.histogram "serve.queue_wait") in
  let req_in, req_out = Unix.pipe () in
  let resp_in, resp_out = Unix.pipe () in
  let server =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr req_in in
        let oc = Unix.out_channel_of_descr resp_out in
        Server.session Config.default ic oc;
        close_out oc)
  in
  let oc = Unix.out_channel_of_descr req_out in
  output_string oc
    ({|{"cmd":"analyze","id":"qw1","sizes":[8,8,8]}|} ^ "\n"
    ^ {|{"cmd":"analyze","id":"qw2","sizes":[8,8,8]}|} ^ "\n");
  close_out oc;
  let ic = Unix.in_channel_of_descr resp_in in
  let l1 = input_line ic in
  let l2 = input_line ic in
  Domain.join server;
  close_in ic;
  check_bool "both requests answered" true
    (contains (l1 ^ l2) "qw1" && contains (l1 ^ l2) "qw2");
  check_bool "queue wait observed per request" true
    (Obs.hist_count (Obs.histogram "serve.queue_wait") >= before + 2);
  (* and it surfaces in the stats queue section *)
  let j = stats_json () in
  match Json.member "queue" j with
  | Some q ->
      check_bool "wait quantiles" true (Json.member "wait" q <> None);
      check_bool "overloaded counter adjacent" true
        (Json.member "overloaded" q <> None)
  | None -> Alcotest.fail "queue section missing"

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let test_access_log () =
  if not (Obs.enabled ()) then Obs.enable ();
  Api.clear_cache ();
  let path = Filename.temp_file "tenet_access" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Access_log.disable ();
      Sys.remove path)
    (fun () ->
      Access_log.configure path;
      let r = small_analyze ~id:"al1" ~sizes:[ 13; 13; 13 ] () in
      ignore (Api.run r);
      ignore (Api.run { r with Api.Request.id = "al2" }) (* cache hit *);
      ignore (Api.run (Api.Request.default Api.Request.Stats));
      Access_log.disable ();
      (match read_lines path with
      | [ l1; l2; l3 ] ->
          let j1 = Json.parse l1 and j2 = Json.parse l2 and j3 = Json.parse l3 in
          check_bool "id logged" true
            (Json.member "id" j1 = Some (Json.String "al1"));
          check_bool "trace = request id" true
            (Json.member "trace" j1 = Some (Json.String "al1"));
          check_bool "first is a miss" true
            (Json.member "cache" j1 = Some (Json.String "miss"));
          check_bool "second is a hit" true
            (Json.member "cache" j2 = Some (Json.String "hit"));
          check_bool "identical fingerprints" true
            (Json.member "fingerprint" j1 = Json.member "fingerprint" j2
            && Json.member "fingerprint" j1 <> None);
          check_bool "latency present" true
            (match Json.member "latency_ms" j1 with
            | Some (Json.Float _) | Some (Json.Int _) -> true
            | _ -> false);
          check_bool "status ok" true
            (Json.member "status" j1 = Some (Json.String "ok"));
          check_bool "stats bypasses cache and fingerprint" true
            (Json.member "cache" j3 = Some (Json.String "bypass")
            && Json.member "fingerprint" j3 = None)
      | l -> Alcotest.failf "expected 3 access-log lines, got %d" (List.length l));
      (* sampling: 1-in-2 keeps every other completed request *)
      let oc = open_out path in
      close_out oc (* truncate *);
      Access_log.configure ~sample:2 path;
      for i = 1 to 4 do
        ignore
          (Api.run
             (small_analyze ~id:(Printf.sprintf "s%d" i) ~sizes:[ 13; 13; 13 ] ()))
      done;
      Access_log.disable ();
      check_int "half the requests logged" 2 (List.length (read_lines path)))

(* An access log the server cannot open is the client's path: a
   bad_request (CLI exit 2), raised before any request is read, and by
   a fleet before it forks a worker that would die on it. *)
let test_access_log_unopenable () =
  let dir = Filename.temp_file "tenet_missing" "" in
  Sys.remove dir;
  let log = Filename.concat dir "x.log" in
  List.iter
    (fun workers ->
      let cfg =
        { Config.default with Config.access_log = Some log; workers }
      in
      match Server.run cfg with
      | () -> Alcotest.failf "%d workers: an unopenable access log" workers
      | exception e ->
          let kind, _ = Api.error_of_exn e in
          check_int
            (Printf.sprintf "%d workers: exit code" workers)
            2
            (Api.Response.error_exit_code kind))
    [ 1; 2 ]

let test_request_trace_exemplar () =
  if not (Obs.enabled ()) then Obs.enable ();
  (* the store keeps the K slowest traced requests, so slower requests
     of earlier tests in this process could crowd this one out: start
     from an empty store *)
  Obs.set_exemplar_capacity 0;
  Obs.set_exemplar_capacity Obs.default_exemplar_capacity;
  Api.clear_cache ();
  ignore (Api.run (small_analyze ~id:"trace-me" ~sizes:[ 14; 14; 14 ] ()));
  match
    List.find_opt
      (fun ex -> ex.Obs.ex_trace = "trace-me")
      (Obs.exemplars ())
  with
  | None -> Alcotest.fail "request did not leave an exemplar"
  | Some ex -> (
      match List.rev ex.Obs.ex_spans with
      | root :: _ ->
          check_string "root span is the request" "serve.request"
            root.Obs.sp_name
      | [] -> Alcotest.fail "empty exemplar span tree")

let () =
  Alcotest.run "serve"
    [
      ( "request codec",
        [
          Alcotest.test_case "defaults roundtrip" `Quick
            test_request_roundtrip_defaults;
          Alcotest.test_case "zoo roundtrip" `Quick test_request_roundtrip_zoo;
          Alcotest.test_case "unknown field" `Quick test_request_unknown_field;
          Alcotest.test_case "missing cmd" `Quick test_request_missing_cmd;
          Alcotest.test_case "bad version" `Quick test_request_bad_version;
          Alcotest.test_case "type mismatch" `Quick test_request_type_mismatch;
          Alcotest.test_case "fingerprint" `Quick
            test_fingerprint_ignores_inert_fields;
          Alcotest.test_case "priority codec" `Quick
            test_request_priority_codec;
        ] );
      ( "config",
        [
          Alcotest.test_case "defaults + env" `Quick test_config_load;
          Alcotest.test_case "watermarks" `Quick test_config_watermarks;
        ] );
      ( "admission",
        [
          Alcotest.test_case "decide matrix" `Quick test_admission_decide;
          Alcotest.test_case "shed counters" `Quick test_admission_counters;
        ] );
      ( "metrics codec",
        [ Alcotest.test_case "roundtrip" `Quick test_metrics_roundtrip ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "oversized/disabled" `Quick
            test_cache_oversized_and_disabled;
          Alcotest.test_case "hit byte-identical" `Quick
            test_cache_hit_byte_identical;
          Alcotest.test_case "errors not cached" `Quick test_errors_not_cached;
          Alcotest.test_case "template cache tier" `Quick
            test_template_cache_tier;
          Alcotest.test_case "template tier bound" `Quick
            test_template_tier_bound;
        ] );
      ( "disk cache",
        [
          Alcotest.test_case "roundtrip + damage tolerance" `Quick
            test_disk_cache_roundtrip;
          Alcotest.test_case "warm restart byte-identical" `Quick
            test_warm_restart_byte_identical;
          Alcotest.test_case "tamper rejected" `Quick
            test_disk_cache_tamper_rejected;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "partial volumes" `Quick
            test_deadline_partial_volumes;
          Alcotest.test_case "completed over deadline" `Quick
            test_deadline_all_stages_completed;
          Alcotest.test_case "ok over deadline not cached" `Quick
            test_deadline_ok_not_cached;
        ] );
      ( "errors",
        [
          Alcotest.test_case "client vs internal classification" `Quick
            test_error_classification;
          Alcotest.test_case "wide code spaces are bad requests" `Quick
            test_wide_codes_bad_request;
          Alcotest.test_case "expression errors are bad requests" `Quick
            test_expression_errors_bad_request;
          Alcotest.test_case "one validity gate for every path" `Quick
            test_validity_gate;
        ] );
      ( "pool",
        [
          Alcotest.test_case "worker survives raising task" `Quick
            test_worker_survives_raising_task;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "malformed line" `Quick
            test_protocol_malformed_line;
          Alcotest.test_case "id recovery" `Quick test_protocol_id_recovery;
        ] );
      ( "batch",
        [
          Alcotest.test_case "matches one-shot" `Quick
            test_batch_matches_oneshot;
          Alcotest.test_case "jobs-count invariant" `Quick
            test_batch_deterministic_across_jobs;
        ] );
      ( "server",
        [
          Alcotest.test_case "overload + drain" `Quick test_serve_overload;
          Alcotest.test_case "stats" `Quick test_stats_request;
        ] );
      ( "observability",
        [
          Alcotest.test_case "stats window" `Quick test_stats_window;
          Alcotest.test_case "prometheus stats" `Quick test_stats_prometheus;
          Alcotest.test_case "queue wait recorded" `Quick
            test_queue_wait_recorded;
          Alcotest.test_case "access log" `Quick test_access_log;
          Alcotest.test_case "unopenable access log is a bad request" `Quick
            test_access_log_unopenable;
          Alcotest.test_case "request trace exemplar" `Quick
            test_request_trace_exemplar;
        ] );
    ]

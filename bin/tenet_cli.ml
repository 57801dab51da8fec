(* The TENET command-line tool (the automatic flow of Figure 2):

     tenet analyze --kernel gemm --sizes 64,64,64 --arch tpu-8x8-systolic \
                   --space "i%8,j%8" --time "i/8,j/8,i%8+j%8+k"
     tenet analyze --c-file kernel.c --arch mesh-8x8 --space ... --time ...
     tenet dse --kernel conv --sizes 16,16,14,14,3,3 --arch tpu-8x8-systolic
     tenet archs
     tenet simulate --kernel gemm --sizes 32,32,32 --arch tpu-8x8-systolic \
                   --space "i%8,j%8" --time "i/8,j/8,i%8+j%8+k"
     tenet batch requests.jsonl --jobs 4
     tenet serve --queue 64

   analyze / volumes / dse / check are thin shells over the versioned
   request API (Tenet.Serve.Api.run) that `tenet batch` and `tenet
   serve` also speak — the flags here build an Api.Request.t, and
   `--json` prints the same response object the service would send
   (docs/serving.md).  Client mistakes (bad expressions, unknown names,
   unsupported api_version) exit 2; an overloaded service response maps
   to 3; internal faults to 1.

   Observability (see docs/observability.md): every analysis command takes
   --trace FILE (Chrome-trace JSON of the internal spans), --stats FILE
   (flat counters/span-aggregate JSON) and --json (machine-readable result
   on stdout instead of the human tables). *)

module T = Tenet
module Ir = Tenet.Ir
module Arch = Tenet.Arch
module Df = Tenet.Dataflow
module M = Tenet.Model
module Obs = Tenet.Obs
module Json = Tenet.Obs.Json
module An = Tenet.Analysis
module Api = Tenet.Serve.Api
module Server = Tenet.Serve.Server
module Access_log = Tenet.Serve.Access_log
open Cmdliner

let parse_sizes s =
  let fail msg =
    failwith
      (Printf.sprintf
         "bad --sizes %S: %s (expected a comma-separated list of positive \
          integers, e.g. 64,64,64)"
         s msg)
  in
  if String.trim s = "" then fail "empty list";
  List.map
    (fun tok ->
      let tok = String.trim tok in
      match int_of_string_opt tok with
      | None ->
          fail
            (if tok = "" then "empty entry"
             else Printf.sprintf "%S is not an integer" tok)
      | Some n when n <= 0 ->
          fail (Printf.sprintf "extent %d is not positive" n)
      | Some n -> n)
    (String.split_on_char ',' s)

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  src

(* Build the shared request fields from the shared flags. *)
let request_of ~cmd ~kernel ~sizes ~c_file ~arch ~bandwidth ~space ~time
    ~dataflow ~strict ~window ~lex ~scale_dims ~deadline : Api.Request.t =
  let d = Api.Request.default cmd in
  {
    d with
    Api.Request.kernel;
    sizes = parse_sizes sizes;
    c_source = Option.map read_file c_file;
    arch;
    bandwidth;
    space;
    time;
    dataflow;
    strict;
    window;
    adjacency = (if lex then `Lex_step else `Inner_step);
    scale_dims =
      (match scale_dims with
      | Some dims -> String.split_on_char ',' dims
      | None -> []);
    deadline_ms = deadline;
  }

(* --- telemetry plumbing --- *)

(* Telemetry is armed whenever any output that needs it was requested;
   the trace/stats files are written even if the command fails partway,
   so a crash still leaves the spans collected so far on disk. *)
let with_telemetry ~trace ~stats ~span f =
  if trace <> None || stats <> None then Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      if Obs.enabled () then begin
        Option.iter Obs.write_trace trace;
        Option.iter Obs.write_stats stats
      end)
    (fun () -> Obs.with_span span f)

(* Counters appended to --json output when telemetry is armed. *)
let telemetry_fields () =
  if Obs.enabled () then [ ("telemetry", Obs.stats ()) ] else []

let print_json fields =
  print_endline (Json.to_string ~pretty:true (Json.Obj fields))

let response_fields (resp : Api.Response.t) =
  match Api.Response.to_json resp with
  | Json.Obj fields -> fields
  | j -> [ ("response", j) ]

(* Render an Api response the CLI way: JSON mode prints the response
   object the service would send (plus telemetry when armed); human mode
   hands the body to the command's renderer.  Error responses exit with
   the kind's distinct code (bad request 2, overloaded 3, internal 1 —
   docs/serving.md).  Called outside with_telemetry so the trace/stats
   files are flushed before any exit. *)
let finish_response ~json ~human (resp : Api.Response.t) =
  let b = resp.Api.Response.body in
  (if json then print_json (response_fields resp @ telemetry_fields ())
   else
     match b.Api.Response.error with
     | Some (_, msg) ->
         List.iter
           (fun d -> prerr_endline (An.Diagnostic.to_string d))
           b.Api.Response.diagnostics;
         prerr_endline ("tenet: " ^ msg)
     | None -> human b);
  match b.Api.Response.error with
  | Some (kind, _) -> exit (Api.Response.error_exit_code kind)
  | None -> ()

(* --- flags --- *)

let kernel_t =
  Arg.(value & opt string "gemm" & info [ "kernel" ] ~docv:"NAME"
         ~doc:"Kernel: gemm, conv, conv1d, mttkrp, mmc, jacobi2d.")

let sizes_t =
  Arg.(value & opt string "64,64,64" & info [ "sizes" ] ~docv:"N,N,..."
         ~doc:"Comma-separated loop extents for the kernel.")

let c_file_t =
  Arg.(value & opt (some string) None & info [ "c-file" ] ~docv:"FILE"
         ~doc:"Parse the tensor operation from a C loop nest instead.")

let arch_t =
  Arg.(value & opt string "tpu-8x8-systolic" & info [ "arch" ] ~docv:"NAME"
         ~doc:"Architecture from the repository (see the archs command).")

let bandwidth_t =
  Arg.(value & opt (some int) None & info [ "bandwidth" ] ~docv:"W"
         ~doc:"Override scratchpad bandwidth (words/cycle).")

let space_t =
  Arg.(value & opt string "i%8,j%8" & info [ "space" ] ~docv:"EXPRS"
         ~doc:"Space-stamp coordinates, e.g. 'i%8,j%8'.")

let time_t =
  Arg.(value & opt string "i/8,j/8,i%8+j%8+k" & info [ "time" ] ~docv:"EXPRS"
         ~doc:"Time-stamp coordinates, e.g. 'i/8,j/8,i%8+j%8+k'.")

let dataflow_t =
  Arg.(value & opt (some string) None & info [ "dataflow" ] ~docv:"NAME"
         ~doc:"Take the dataflow from the Table III zoo by name (e.g. \
               'gemm/(IJ-P | J,IJK-T)', or an unambiguous bare name) \
               instead of --space/--time.")

let strict_t =
  Arg.(value & flag & info [ "strict" ]
         ~doc:"Run the static model checker first and fail on any error \
               diagnostic (see the check command).")

let window_t =
  Arg.(value & opt int 1 & info [ "window" ] ~docv:"W"
         ~doc:"Per-PE register window (stamps of temporal reuse history).")

let lex_t =
  Arg.(value & flag & info [ "lex" ]
         ~doc:"Use lexicographic (wrap-aware) time adjacency.")

let scaled_t =
  Arg.(value & opt (some string) None & info [ "scale-dims" ] ~docv:"D,D"
         ~doc:"Extrapolate these sequential dims (for huge layers).")

let params_t =
  Arg.(value & opt (some string) None & info [ "params" ] ~docv:"D,D"
         ~doc:"Keep these iterator dims as free size parameters: compile \
               the dataflow once into a reusable metric template, answer \
               the requested sizes by O(1) substitution, and print each \
               metric's closed form in the parameters alongside the \
               instantiated numbers (docs/performance.md).")

let deadline_t =
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS"
         ~doc:"Processing budget: pipeline stages past the expiry are \
               skipped and the response is marked partial with a TN013 \
               diagnostic (see docs/serving.md).")

let trace_t =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome-trace JSON (chrome://tracing, Perfetto) of \
               the internal spans to $(docv).")

let stats_t =
  Arg.(value & opt (some string) None & info [ "stats" ] ~docv:"FILE"
         ~doc:"Write flat telemetry stats (counters, span aggregates) as \
               JSON to $(docv).")

let json_t =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Print one machine-readable JSON object on stdout instead of \
               the human-readable report (the same response object the \
               serve protocol sends; see docs/serving.md).")

let jobs_t =
  (* strict: reject 0, negatives and garbage with a named error instead of
     silently falling back to sequential *)
  let jobs_conv =
    Arg.conv'
      ( (fun s ->
          match T.Util.Parallel.parse_jobs ~what:"--jobs" s with
          | n -> Ok n
          | exception Failure msg -> Error msg),
        Format.pp_print_int )
  in
  Arg.(value & opt (some jobs_conv) None & info [ "jobs" ] ~docv:"N"
         ~doc:"Run on $(docv) parallel domains (DSE candidate evaluation \
               and union counting).  Defaults to \\$TENET_JOBS, or 1 \
               (sequential).  Results are identical at any job count.")

let apply_jobs = function
  | Some n -> T.Util.Parallel.set_jobs n
  | None ->
      (* force TENET_JOBS resolution now: a malformed value should fail
         the command up front, not at the first parallel region *)
      ignore (T.Util.Parallel.jobs ())

(* --- commands --- *)

let wrap f = try `Ok (f ()) with
  | Failure msg | Invalid_argument msg | Api.Bad msg -> `Error (false, msg)
  | M.Concrete.Invalid_dataflow msg -> `Error (false, "invalid dataflow: " ^ msg)
  | T.Isl.Parser.Parse_error msg -> `Error (false, "parse error: " ^ msg)
  | T.Isl.Aff.Nonlinear msg -> `Error (false, "non-affine expression: " ^ msg)
  | Ir.Cfront.Syntax_error msg -> `Error (false, "C syntax error: " ^ msg)
  | Sys_error msg -> `Error (false, msg)
  (* a telemetry file that fails to write surfaces from Fun.protect's
     cleanup as Finally_raised *)
  | Fun.Finally_raised (Sys_error msg) -> `Error (false, msg)

let analyze_cmd =
  let run kernel sizes c_file arch bandwidth space time dataflow strict window
      lex scale_dims params deadline jobs trace stats json =
    wrap (fun () ->
        apply_jobs jobs;
        let req =
          {
            (request_of ~cmd:Api.Request.Analyze ~kernel ~sizes ~c_file ~arch
               ~bandwidth ~space ~time ~dataflow ~strict ~window ~lex
               ~scale_dims ~deadline)
            with
            Api.Request.params =
              (match params with
              | Some dims -> String.split_on_char ',' dims
              | None -> []);
          }
        in
        let resp =
          with_telemetry ~trace ~stats ~span:"cli.analyze" (fun () ->
              Api.run req)
        in
        finish_response ~json resp ~human:(fun b ->
            List.iter
              (fun d -> prerr_endline (An.Diagnostic.to_string d))
              b.Api.Response.diagnostics;
            match b.Api.Response.payload with
            | Some (Api.Response.Metrics { metrics; forms; _ }) ->
                print_string (T.report metrics);
                if forms <> [] then begin
                  print_endline "closed forms (in the size parameters):";
                  List.iter
                    (fun (k, v) -> Printf.printf "  %-24s %s\n" k v)
                    forms
                end
            | _ -> ()))
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Analyze one dataflow (Figure 2 flow).")
    Term.(
      ret
        (const run $ kernel_t $ sizes_t $ c_file_t $ arch_t $ bandwidth_t
       $ space_t $ time_t $ dataflow_t $ strict_t $ window_t $ lex_t
       $ scaled_t $ params_t $ deadline_t $ jobs_t $ trace_t $ stats_t
       $ json_t))

let volumes_cmd =
  let run kernel sizes c_file arch bandwidth space time dataflow lex deadline
      jobs trace stats json =
    wrap (fun () ->
        apply_jobs jobs;
        let req =
          request_of ~cmd:Api.Request.Volumes ~kernel ~sizes ~c_file ~arch
            ~bandwidth ~space ~time ~dataflow ~strict:false ~window:1 ~lex
            ~scale_dims:None ~deadline
        in
        let resp =
          with_telemetry ~trace ~stats ~span:"cli.volumes" (fun () ->
              Api.run req)
        in
        finish_response ~json resp ~human:(fun b ->
            List.iter
              (fun d -> prerr_endline (An.Diagnostic.to_string d))
              b.Api.Response.diagnostics;
            match b.Api.Response.payload with
            | Some (Api.Response.Volumes { tensors; _ }) ->
                List.iter
                  (fun (tensor, dir, v) ->
                    Printf.printf
                      "%-3s %-3s total=%-10d uniq=%-10d reuseT=%-10d \
                       reuseS=%-10d\n"
                      tensor
                      (match dir with
                      | Ir.Tensor_op.Read -> "in"
                      | Ir.Tensor_op.Write -> "out")
                      v.M.Metrics.total v.M.Metrics.unique
                      v.M.Metrics.temporal_reuse v.M.Metrics.spatial_reuse)
                  tensors
            | _ -> ()))
  in
  Cmd.v
    (Cmd.info "volumes"
       ~doc:
         "Per-tensor volume metrics by relation counting (Table II), one \
          pipeline stage per tensor — the partial-result-friendly subset \
          of analyze.")
    Term.(
      ret
        (const run $ kernel_t $ sizes_t $ c_file_t $ arch_t $ bandwidth_t
       $ space_t $ time_t $ dataflow_t $ lex_t $ deadline_t $ jobs_t
       $ trace_t $ stats_t $ json_t))

let simulate_cmd =
  let run kernel sizes c_file arch bandwidth space time jobs trace stats json =
    wrap (fun () ->
        apply_jobs jobs;
        with_telemetry ~trace ~stats ~span:"cli.simulate" (fun () ->
            (* reuse the Api builders so names and error texts stay
               uniform with the served commands *)
            let req =
              request_of ~cmd:Api.Request.Analyze ~kernel ~sizes ~c_file
                ~arch ~bandwidth ~space ~time ~dataflow:None ~strict:false
                ~window:1 ~lex:false ~scale_dims:None ~deadline:None
            in
            let op = Api.op_of req in
            let spec = Api.arch_of req in
            let df = Api.dataflow_of req op in
            let r = T.Sim.Simulator.run spec op df in
            if json then
              print_json
                ([
                   ("command", Json.String "simulate");
                   ("kernel", Json.String kernel);
                   ("arch", Json.String arch);
                   ("dataflow", Api.Response.dataflow_json df);
                   ("result", T.Sim.Simulator.to_json r);
                 ]
                @ telemetry_fields ())
            else print_endline (T.Sim.Simulator.to_string r)))
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the cycle-level simulator on a dataflow.")
    Term.(
      ret
        (const run $ kernel_t $ sizes_t $ c_file_t $ arch_t $ bandwidth_t
       $ space_t $ time_t $ jobs_t $ trace_t $ stats_t $ json_t))

let dse_cmd =
  let run kernel sizes c_file arch bandwidth strict search budget top deadline
      jobs trace stats json =
    wrap (fun () ->
        apply_jobs jobs;
        let req =
          let d = Api.Request.default Api.Request.Dse in
          let base =
            request_of ~cmd:Api.Request.Dse ~kernel ~sizes ~c_file ~arch
              ~bandwidth ~space:d.Api.Request.space ~time:d.Api.Request.time
              ~dataflow:None ~strict ~window:1 ~lex:false ~scale_dims:None
              ~deadline
          in
          { base with Api.Request.top; search; budget }
        in
        let resp =
          with_telemetry ~trace ~stats ~span:"cli.dse" (fun () -> Api.run req)
        in
        finish_response ~json resp ~human:(fun b ->
            List.iter
              (fun d -> prerr_endline (An.Diagnostic.to_string d))
              b.Api.Response.diagnostics;
            match b.Api.Response.payload with
            | Some (Api.Response.Dse_result { candidates; pruned; valid;
                                              outcomes }) ->
                if strict then
                  Printf.printf
                    "%d candidates, %d pruned by --strict, %d valid; top %d \
                     by latency:\n"
                    candidates pruned valid top
                else
                  Printf.printf "%d candidates, %d valid; top %d by latency:\n"
                    candidates valid top;
                List.iteri
                  (fun i (o : Api.Response.dse_outcome) ->
                    Printf.printf
                      "%2d. %-34s lat=%10.0f util=%4.2f sbw=%7.2f [%s]\n"
                      (i + 1) o.Api.Response.o_dataflow.Df.Dataflow.name
                      o.Api.Response.o_metrics.M.Metrics.latency
                      o.Api.Response.o_metrics.M.Metrics.avg_utilization
                      o.Api.Response.o_metrics.M.Metrics.sbw
                      (if o.Api.Response.o_expressible then "data-centric"
                       else "TENET-only"))
                  outcomes
            | _ -> ()))
  in
  let top_t =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N"
           ~doc:"How many best dataflows to print.")
  in
  let search_t =
    let mode_conv =
      Arg.enum
        [
          ("exhaustive", `Exhaustive); ("pruned", `Pruned);
          ("heuristic", `Heuristic);
        ]
    in
    Arg.(
      value
      & opt mode_conv `Exhaustive
      & info [ "search" ] ~docv:"MODE"
          ~doc:
            "Search mode: $(b,exhaustive) scores every candidate, \
             $(b,pruned) adds symmetry and dominance pruning with the same \
             best result, $(b,heuristic) additionally caps full evaluations \
             at $(b,--budget).")
  in
  let budget_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Evaluation budget for $(b,--search heuristic) (default: a \
             quarter of the candidates).")
  in
  Cmd.v (Cmd.info "dse" ~doc:"Explore the dataflow design space.")
    Term.(
      ret
        (const run $ kernel_t $ sizes_t $ c_file_t $ arch_t $ bandwidth_t
       $ strict_t $ search_t $ budget_t $ top_t $ deadline_t $ jobs_t
       $ trace_t $ stats_t $ json_t))

let check_cmd =
  let diag_lines prefix ds =
    List.iter
      (fun d ->
        String.split_on_char '\n' (An.Diagnostic.to_string d)
        |> List.iter (fun line -> Printf.printf "%s%s\n" prefix line))
      ds
  in
  let run kernel sizes c_file arch bandwidth space time dataflow all
      capacities explain lex jobs trace stats json =
    wrap (fun () ->
        (match explain with
        | None -> ()
        | Some code -> (
            match An.Diagnostic.explain code with
            | Some text ->
                let head =
                  match
                    List.find_opt
                      (fun (c, _, _, _) -> c = code)
                      An.Diagnostic.registry
                  with
                  | Some (_, sev, title, _) ->
                      Printf.sprintf "%s (%s, %s)" code title
                        (An.Diagnostic.severity_to_string sev)
                  | None -> code
                in
                Printf.printf "%s\n\n%s\n" head text;
                exit 0
            | None ->
                failwith
                  (T.Util.Text.unknown ~what:"diagnostic code" code
                     (List.map
                        (fun (c, _, _, _) -> c)
                        An.Diagnostic.registry))));
        apply_jobs jobs;
        let adjacency = if lex then `Lex_step else `Inner_step in
        if all then begin
          (* the zoo x repository sweep keeps its dedicated path (and its
             stable --json shape, which scripts/ci.sh greps) *)
          let subjects = An.Checker.zoo_subjects () in
          let subjects =
            if capacities then
              (* generous defaults: roomy enough that every zoo subject
                 stays clean, tight enough to be meaningful (ci.sh runs
                 this sweep as the TN014-TN018 smoke test) *)
              List.map
                (fun (s : An.Checker.subject) ->
                  {
                    s with
                    An.Checker.s_spec =
                      Arch.Spec.with_capacities
                        ~scratchpad_bytes:(1 lsl 22) ~pe_regs:64
                        ~link_width:8 ~pe_ports:8 ~max_fanout:64
                        ~dram_bw:4096 s.An.Checker.s_spec;
                  })
                subjects
            else subjects
          in
          let had_errors =
            with_telemetry ~trace ~stats ~span:"cli.check" (fun () ->
                let results =
                  An.Checker.check_subjects ~adjacency subjects
                in
                let failing =
                  List.filter
                    (fun (_, ds) -> An.Diagnostic.errors ds <> [])
                    results
                in
                if json then
                  print_json
                    ([
                       ("command", Json.String "check");
                       ("subjects", Json.Int (List.length results));
                       ("failing", Json.Int (List.length failing));
                       ( "results",
                         Json.List
                           (List.map
                              (fun ((s : An.Checker.subject), ds) ->
                                Json.Obj
                                  [
                                    ("arch", Json.String s.An.Checker.s_arch);
                                    ( "kernel",
                                      Json.String s.An.Checker.s_kernel );
                                    ( "dataflow",
                                      Json.String
                                        s.An.Checker.s_df.Df.Dataflow.name );
                                    ( "diagnostics",
                                      Json.List
                                        (List.map An.Diagnostic.to_json ds)
                                    );
                                  ])
                              results) );
                     ]
                    @ telemetry_fields ())
                else begin
                  List.iter
                    (fun ((s : An.Checker.subject), ds) ->
                      let label =
                        Printf.sprintf "%-18s %-8s %s" s.An.Checker.s_arch
                          s.An.Checker.s_kernel
                          s.An.Checker.s_df.Df.Dataflow.name
                      in
                      if ds = [] then Printf.printf "ok    %s\n" label
                      else begin
                        Printf.printf "%-5s %s\n"
                          (if An.Diagnostic.errors ds <> [] then "FAIL"
                           else "warn")
                          label;
                        diag_lines "      " ds
                      end)
                    results;
                  Printf.printf "%d subjects checked, %d failing\n"
                    (List.length results) (List.length failing)
                end;
                failing <> [])
          in
          if had_errors then exit 1
        end
        else begin
          let req =
            request_of ~cmd:Api.Request.Check ~kernel ~sizes ~c_file ~arch
              ~bandwidth ~space ~time ~dataflow ~strict:false ~window:1 ~lex
              ~scale_dims:None ~deadline:None
          in
          let resp =
            with_telemetry ~trace ~stats ~span:"cli.check" (fun () ->
                Api.run req)
          in
          finish_response ~json resp ~human:(fun b ->
              match b.Api.Response.diagnostics with
              | [] -> print_endline "ok: all checks passed"
              | ds -> diag_lines "" ds);
          (* info-level capacity lint: a spec with no declared capacities
             makes TN014-TN018 vacuous; human output only, so the --json
             response stays the byte-stable API object *)
          if not json then
            (try
               List.iter
                 (fun d -> print_endline (An.Diagnostic.to_string d))
                 (An.Capacity.lint (Arch.Repository.find arch))
             with _ -> ());
          if
            An.Diagnostic.errors resp.Api.Response.body.Api.Response.diagnostics
            <> []
          then exit 1
        end)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically check a (kernel, dataflow, architecture) triple: Θ \
          validity, causality, interconnect well-formedness, reuse and \
          resource feasibility.  With --all, sweep the whole Table III \
          zoo across the architecture repository ($(b,--capacities) adds \
          generous capacity declarations so TN014-TN018 run).  \
          $(b,--explain CODE) documents one diagnostic code.  Exits \
          nonzero if any error diagnostic is found.")
    Term.(
      ret
        (const run $ kernel_t $ sizes_t $ c_file_t $ arch_t $ bandwidth_t
       $ space_t $ time_t $ dataflow_t
       $ Arg.(
           value & flag
           & info [ "all" ]
               ~doc:"Check every zoo dataflow on every matching-rank \
                     repository architecture.")
       $ Arg.(
           value & flag
           & info [ "capacities" ]
               ~doc:
                 "With $(b,--all): annotate every architecture with \
                  generous default capacities so the resource checks \
                  TN014-TN018 run (4 MiB scratchpad, 64 registers, 8-wide \
                  links, 8 ports, fan-out 64, 4096 words/cycle DRAM).")
       $ Arg.(
           value
           & opt (some string) None
           & info [ "explain" ] ~docv:"CODE"
               ~doc:
                 "Print the documentation paragraph for one diagnostic \
                  code (e.g. TN014) and exit; unknown codes get a \
                  nearest-match suggestion.")
       $ lex_t $ jobs_t $ trace_t $ stats_t $ json_t))

(* Flags shared by batch and serve: the scale-out knobs.  Each layers
   over Config.load (), so the precedence is flag > TENET_SERVE_* env >
   default. *)
let workers_t =
  Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N"
         ~doc:"Pre-fork $(docv) worker processes and fan requests out \
               over socketpairs (default \\$TENET_SERVE_WORKERS, or 1: \
               in-process).  Output stays byte-identical to a \
               single-process run.")

let cache_dir_t =
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
         ~doc:"Persist the result cache in $(docv) (default \
               \\$TENET_SERVE_CACHE_DIR, or off): loaded on startup, \
               merged back atomically on shutdown, shareable across \
               replicas.")

let serve_config ?queue ?workers ?cache_dir ?shed_low ?shed_normal
    ?access_log ?sample ?socket () : Server.Config.t =
  let cfg = Server.Config.load () in
  let opt v default = Option.value v ~default in
  {
    cfg with
    Server.Config.queue_limit = opt queue cfg.Server.Config.queue_limit;
    workers = opt workers cfg.Server.Config.workers;
    cache_dir =
      (match cache_dir with
      | Some _ -> cache_dir
      | None -> cfg.Server.Config.cache_dir);
    shed_low =
      (match shed_low with
      | Some _ -> shed_low
      | None -> cfg.Server.Config.shed_low);
    shed_normal =
      (match shed_normal with
      | Some _ -> shed_normal
      | None -> cfg.Server.Config.shed_normal);
    access_log;
    access_log_sample = opt sample 1;
    socket;
  }

let batch_cmd =
  let run file jobs workers cache_dir trace stats =
    wrap (fun () ->
        apply_jobs jobs;
        let cfg = serve_config ?workers ?cache_dir () in
        with_telemetry ~trace ~stats ~span:"cli.batch" (fun () ->
            let ic = if file = "-" then stdin else open_in file in
            Fun.protect
              ~finally:(fun () -> if file <> "-" then close_in ic)
              (fun () -> Server.run_batch cfg ic stdout)))
  in
  let file_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"JSON-lines request file ('-' for stdin); blank and \
                 '#'-prefixed lines are skipped.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Evaluate a file of serve-protocol requests (one JSON object per \
          line, docs/serving.md) and print one response per line, in input \
          order.  Deterministic at any --jobs or --workers count, and \
          identical to running each request one-shot.")
    Term.(ret (const run $ file_t $ jobs_t $ workers_t $ cache_dir_t
               $ trace_t $ stats_t))

let serve_cmd =
  let run socket queue workers cache_dir shed_low shed_normal jobs
      access_log sample =
    wrap (fun () ->
        apply_jobs jobs;
        (match sample with
        | Some n when n < 1 ->
            failwith "--access-log-sample must be a positive integer"
        | _ -> ());
        if access_log = None && sample <> None then
          failwith "--access-log-sample requires --access-log";
        let cfg =
          serve_config ?queue ?workers ?cache_dir ?shed_low ?shed_normal
            ?access_log ?sample ?socket ()
        in
        Fun.protect
          ~finally:(fun () -> Access_log.disable ())
          (fun () -> Server.run cfg))
  in
  let socket_t =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on a Unix socket instead of stdin/stdout (one \
                 JSON-lines connection at a time).")
  in
  let queue_t =
    Arg.(value & opt (some int) None & info [ "queue" ] ~docv:"N"
           ~doc:"Bound on waiting requests before the service answers \
                 'overloaded' (default \\$TENET_SERVE_QUEUE, or 64).")
  in
  let shed_low_t =
    Arg.(value & opt (some int) None & info [ "shed-low" ] ~docv:"N"
           ~doc:"Queue depth at which low-priority requests shed \
                 (default \\$TENET_SERVE_SHED_LOW, or half the queue \
                 limit).")
  in
  let shed_normal_t =
    Arg.(value & opt (some int) None & info [ "shed-normal" ] ~docv:"N"
           ~doc:"Queue depth at which normal-priority requests shed \
                 (default \\$TENET_SERVE_SHED_NORMAL, or the queue limit \
                 itself, i.e. only at the hard bound).")
  in
  let access_log_t =
    Arg.(value & opt (some string) None & info [ "access-log" ] ~docv:"FILE"
           ~doc:"Append one JSON line per completed request (id, trace, \
                 fingerprint, status, cache outcome, latency, queue wait; \
                 see docs/serving.md).  With --workers, each worker \
                 appends to FILE.w0, FILE.w1, ...")
  in
  let sample_t =
    Arg.(value & opt (some int) None & info [ "access-log-sample" ] ~docv:"N"
           ~doc:"Log every Nth completed request (default 1: log all); \
                 requires --access-log.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent analysis service: JSON-lines requests on \
          stdin (or --socket), responses in completion order correlated \
          by id, per-request deadlines, graduated load shedding, a \
          two-level result cache (in-memory LRU plus optional persistent \
          tier), a pre-forked worker fleet (--workers), live stats with \
          Prometheus exposition, and an optional access log \
          (docs/serving.md).")
    Term.(ret (const run $ socket_t $ queue_t $ workers_t $ cache_dir_t
               $ shed_low_t $ shed_normal_t $ jobs_t $ access_log_t
               $ sample_t))

let archs_cmd =
  let run () =
    `Ok
      (List.iter
         (fun (name, spec) ->
           Printf.printf "%-20s %s\n" name (Arch.Spec.to_string spec))
         Arch.Repository.all)
  in
  Cmd.v (Cmd.info "archs" ~doc:"List the architecture repository.")
    Term.(ret (const run $ const ()))

let zoo_cmd =
  let run kernel =
    wrap (fun () ->
        let dfs =
          match kernel with
          | "gemm" -> Df.Zoo.gemm_all ()
          | "conv" -> Df.Zoo.conv_all ()
          | "mttkrp" -> Df.Zoo.mttkrp_all ()
          | "jacobi2d" -> Df.Zoo.jacobi_all ()
          | "mmc" -> Df.Zoo.mmc_all ()
          | k ->
              failwith
                (T.Util.Text.unknown ~what:"kernel" k
                   [ "gemm"; "conv"; "mttkrp"; "jacobi2d"; "mmc" ])
        in
        List.iter (fun df -> print_endline (Df.Dataflow.to_string df)) dfs)
  in
  Cmd.v
    (Cmd.info "zoo" ~doc:"Print the Table III dataflows for a kernel.")
    Term.(ret (const run $ kernel_t))

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "tenet" ~version:"1.0.0"
             ~doc:
               "Relation-centric modeling of tensor dataflows on spatial \
                architectures (TENET, ISCA 2021).")
          [
            analyze_cmd;
            volumes_cmd;
            simulate_cmd;
            dse_cmd;
            check_cmd;
            batch_cmd;
            serve_cmd;
            archs_cmd;
            zoo_cmd;
          ]))

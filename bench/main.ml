(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's experiment index).  Run all
   sections with `dune exec bench/main.exe`, or a subset by name:
   `dune exec bench/main.exe -- fig6 fig9`. *)

let sections : (string * string * (unit -> unit)) list =
  [
    (* serve_mp first: it forks server processes, and the OCaml runtime
       cannot fork once any other section has spawned pool domains *)
    ("serve_mp", "Scale-out serving throughput (pre-fork fleet)", Exp_serve_mp.run);
    ("fig1", "Figure 1 motivation (1D-CONV reuse)", Exp_fig1.run);
    ("table_design_space", "Section IV-A design-space sizes", Exp_design_space.run);
    ("table3", "Table III dataflow zoo", Exp_table3.run);
    ("fig6", "Figure 6 latency vs bandwidth", Exp_fig6.run);
    ("fig7", "Figure 7 large-scale applications", Exp_fig7.run);
    ("fig8", "Figure 8 modeling runtime", Exp_fig8.run);
    ("dse", "Section VI-B conv design-space exploration", Exp_design_space.run_dse);
    ("fig9", "Figure 9 critical metrics", Exp_fig9.run);
    ("fig10", "Figure 10 bandwidth vs topology", Exp_fig10.run);
    ("fig11", "Figure 11 model accuracy vs simulator", Exp_fig11.run);
    ("fig12", "Figure 12 reuse comparison", Exp_fig12.run);
    ("buffer", "Buffer-capacity & compute-centric ablations", Exp_buffer.run);
    ("serve", "Serve result-cache throughput (warm vs cold batch)", Exp_serve.run);
  ]

module Obs = Tenet.Obs
module Json = Tenet.Obs.Json

(* One-line-per-section roll-up ({section, total_s, points_enumerated,
   qpoly_hits, qpoly_fallbacks, qpoly_parametric_hits,
   qpoly_parametric_fallbacks}) written next to the per-section phase
   files; scripts/bench_compare.sh diffs it against the committed
   BENCH_seed.json baseline (which predates the fast-path fields — the
   script treats them as optional, and the parametric pair rides in the
   pattern's open tail). *)
let write_summary dir rows =
  let path = Filename.concat dir "summary.json" in
  let j =
    Json.Obj
      [
        ( "sections",
          Json.List
            (List.rev_map
               (fun ( name,
                      total_s,
                      points,
                      qpoly,
                      qpoly_fb,
                      param,
                      param_fb,
                      extras ) ->
                 Json.Obj
                   ([
                      ("section", Json.String name);
                      ("total_s", Json.Float total_s);
                      ("points_enumerated", Json.Int points);
                      ("qpoly_hits", Json.Int qpoly);
                      ("qpoly_fallbacks", Json.Int qpoly_fb);
                      ("qpoly_parametric_hits", Json.Int param);
                      ("qpoly_parametric_fallbacks", Json.Int param_fb);
                    ]
                   @ extras))
               rows) );
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string ~pretty:true j);
  output_char oc '\n';
  close_out oc;
  path

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map (fun (n, _, _) -> n) sections
  in
  let t0 = Unix.gettimeofday () in
  let telemetry = Bench_util.timings_dir () <> None in
  let c_points = Obs.counter "count.points_enumerated" in
  let c_qpoly = Obs.counter "count.qpoly_hits" in
  let c_qpoly_fb = Obs.counter "count.qpoly_fallbacks" in
  let c_param = Obs.counter "count.template_hits" in
  let c_param_fb = Obs.counter "count.template_fallbacks" in
  let timing_files = ref [] in
  let summary_rows = ref [] in
  List.iter
    (fun name ->
      match List.find_opt (fun (n, _, _) -> String.equal n name) sections with
      | Some (_, _, run) -> begin
          (* every section starts from empty memo tables, so its
             counters do not depend on which sections ran before it *)
          Tenet.Isl.Count.cache_clear ();
          Tenet.Model.Concrete.clear_pred_cache ();
          Tenet.Serve.Api.clear_cache ();
          Bench_util.reset_phases ();
          Bench_util.reset_extras ();
          if telemetry then begin
            Obs.reset ();
            Obs.enable ()
          end;
          let s0 = Unix.gettimeofday () in
          (try run ()
           with e ->
             Printf.printf "!! section %s failed: %s\n" name
               (Printexc.to_string e));
          let total_s = Unix.gettimeofday () -. s0 in
          summary_rows :=
            ( name,
              total_s,
              Obs.value c_points,
              Obs.value c_qpoly,
              Obs.value c_qpoly_fb,
              Obs.value c_param,
              Obs.value c_param_fb,
              Bench_util.summary_extras () )
            :: !summary_rows;
          match Bench_util.write_phases ~name ~total_s with
          | Some path -> timing_files := path :: !timing_files
          | None -> ()
        end
      | None ->
          Printf.printf "unknown section %s (known: %s)\n" name
            (String.concat ", " (List.map (fun (n, _, _) -> n) sections)))
    requested;
  Printf.printf "\ntotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0);
  if !timing_files <> [] then begin
    match Bench_util.timings_dir () with
    | Some dir ->
        let summary = write_summary dir !summary_rows in
        Printf.printf "per-phase timing JSON: %s\nsummary JSON: %s\n"
          (String.concat ", " (List.rev !timing_files))
          summary
    | None -> ()
  end

(* The measurement loop shared by the three workloads.

   A run is a fixed number of rounds.  Each round empties the library's
   caches, sets the workload up (timed, [setup_reps] times on untraced
   rounds so that set-up time is a median, not one sample), then runs
   the pass: a fixed, seeded list of ops, each timed on its own.  Every
   op's output is checked after the pass, outside all timed regions.

   Untraced rounds give the end-to-end figures.  Under [--trace 1]
   every other round is traced: telemetry is armed as the serve
   runners arm it, each timed public call is wrapped in a benchmark
   span, and the span ring is raised so that nothing is dropped.  The
   untraced rounds of such a run count calls and allocation per layer
   instead, with telemetry off: the exemplar store makes telemetry's
   own allocation depend on timing.  They also give the tracing
   overhead. *)

module Obs = Tenet.Obs

(* Seconds on the monotonic clock, to the nanosecond: the wall clock's
   float loses a quarter of a microsecond, a percent of a cache hit. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* What a workload provides.                                           *)
(* ------------------------------------------------------------------ *)

type check = { digest : string; error : string option }

let check ?error (output : string) : check =
  { digest = Digest.to_hex (Digest.string output); error }

type summary = {
  model_err_pct : float;
      (** mean |model latency - simulated cycles| / cycles, in percent *)
  counts : (string * float) list;
      (** per-layer figures the workload takes from its own outputs *)
  shares : (string * float) list;
      (** input shares for the steadiness record *)
  failures : (int * string) list;
      (** ops failed by checks that need the whole pass (serve replay) *)
  op_class : int -> string;
      (** the trace bucket of op [i] (serve: "hit" or "miss") *)
}

type pass = {
  n_ops : int;
  op : int -> unit -> check;
      (** [op i] makes op [i]'s timed calls and returns its check *)
  summary : full:bool -> summary;
      (** after the checks, untimed; [full] on the first round only, for
          checks too costly to repeat *)
}

type workload = {
  name : string;
  round_s : float;
      (** nominal seconds of one untraced round: sets the number of
          rounds a run of a given length makes *)
  setup_reps : int;
  reset : unit -> unit;  (** empty every library cache *)
  setup : unit -> pass;
}

(* ------------------------------------------------------------------ *)
(* Benchmark spans around the timed public calls.                      *)
(* ------------------------------------------------------------------ *)

type layer = { key : string; span : string }

let layer key = { key; span = "bench." ^ key }
let sim = layer "sim"
let model = layer "model"
let analysis = layer "analysis"
let dse = layer "dse"
let codec_in = layer "codec_in"
let serve = layer "serve"
let codec_out = layer "codec_out"

(* What [call] does: nothing, wrap the call in its benchmark span
   (traced rounds), or count its calls and allocation (the untraced
   rounds of a traced run). *)
let mode : [ `Plain | `Spans | `Accounting ] ref = ref `Plain

type acc = { mutable calls : int; mutable words : float }

let accs : (string, acc) Hashtbl.t = Hashtbl.create 8

(* Words allocated by the most recent accounted [call]. *)
let last_words = ref 0.

let words (s : Gc.stat) : float =
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let call (l : layer) (f : unit -> 'a) : 'a =
  match !mode with
  | `Plain -> f ()
  | `Spans -> Obs.with_span l.span f
  | `Accounting ->
      let s0 = Gc.quick_stat () in
      let r = f () in
      let s1 = Gc.quick_stat () in
      let a =
        match Hashtbl.find_opt accs l.key with
        | Some a -> a
        | None ->
            let a = { calls = 0; words = 0. } in
            Hashtbl.add accs l.key a;
            a
      in
      last_words := words s1 -. words s0;
      a.calls <- a.calls + 1;
      a.words <- a.words +. !last_words;
      r

(* The trace id of pass op [i]; serve requests of the pass carry it as
   their request id, which [Api.run] adopts as its trace. *)
let op_trace (i : int) : string = "p" ^ string_of_int i

let op_of_trace (t : string) : int option =
  if String.length t > 1 && t.[0] = 'p' then
    int_of_string_opt (String.sub t 1 (String.length t - 1))
  else None

let layer_of_span (name : string) : string =
  let pre p = String.starts_with ~prefix:p name in
  if name = sim.span || pre "sim." then "sim"
  else if
    name = model.span || pre "concrete." || pre "scaled." || pre "model."
    || pre "volumes."
  then "model"
  else if name = analysis.span || pre "analysis." then "analysis"
  else if name = dse.span || pre "dse." then "dse"
  else if name = codec_in.span then "codec_in"
  else if name = codec_out.span then "codec_out"
  else if name = serve.span || pre "serve." then "serve"
  else "other"

(* Self time: a span's duration minus the intervals its direct children
   cover.  Spans come in completion order from one domain, so the
   children of a depth-d span are exactly the depth-(d+1) spans that
   completed since the previous depth-d span.  Returns self seconds per
   (layer, trace id). *)
let self_times (spans : Obs.span list) : (string * string, float) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  let child = ref (Array.make 16 0.) in
  List.iter
    (fun (sp : Obs.span) ->
      let d = sp.Obs.sp_depth in
      if d + 2 > Array.length !child then begin
        let a = Array.make (2 * (d + 2)) 0. in
        Array.blit !child 0 a 0 (Array.length !child);
        child := a
      end;
      let c = !child in
      let self = sp.Obs.sp_dur -. c.(d + 1) in
      c.(d + 1) <- 0.;
      c.(d) <- c.(d) +. sp.Obs.sp_dur;
      let key = (layer_of_span sp.Obs.sp_name, sp.Obs.sp_trace) in
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl key) in
      Hashtbl.replace tbl key (prev +. self))
    spans;
  tbl

(* Large enough for the busiest traced round (dse_mapper opens one
   dse.candidate span per candidate); a run that still overflows it
   fails rather than report truncated self times. *)
let span_capacity = 1 lsl 21

(* ------------------------------------------------------------------ *)
(* Rounds.                                                             *)
(* ------------------------------------------------------------------ *)

type round = {
  traced : bool;
  setup_s : float list;
  pass_s : float;
  lat : float array;  (** seconds per op *)
  alloc_words : float;
  major_collections : int;
  promoted_words : float;
  digests : string array;
  errors : (int * string) list;  (** failed ops *)
  summary : summary;
  layers : (string * float) list;  (** per-layer figures (under --trace 1) *)
  rss_mb : float;  (** peak resident set at the end of the pass *)
}

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

(* Per-layer figures of a traced round: self times, the program's
   counters and the span count. *)
let span_layers (p : pass) (summary : summary) : (string * float) list =
  if Obs.spans_dropped () > 0 then
    failwith
      (Printf.sprintf "span ring overflow: %d spans dropped"
         (Obs.spans_dropped ()));
  let spans = Obs.spans () in
  let selfs = self_times spans in
  let self ?cls l =
    Hashtbl.fold
      (fun (l', trace) s acc ->
        if l' <> l then acc
        else
          match cls with
          | None -> acc +. s
          | Some c -> (
              match op_of_trace trace with
              | Some i when i < p.n_ops && summary.op_class i = c -> acc +. s
              | _ -> acc))
      selfs 0.
  in
  let counters = Obs.counters () in
  let counter n =
    float_of_int (Option.value ~default:0 (List.assoc_opt n counters))
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  let sim_self = self "sim" and stamps = counter "sim.stamps" in
  let tlookups =
    counter "serve.template_cache_hits" +. counter "serve.template_cache_misses"
  in
  [
    ("sim.self_s", sim_self);
    ("sim.stamps", stamps);
    ("sim.us_per_stamp", ratio (1e6 *. sim_self) stamps);
    ("sim.stalled_cycles", counter "sim.stalled_cycles");
    ("concrete.self_s", self "model");
    ("concrete.analyses", counter "concrete.analyses");
    ("concrete.instances_walked", counter "concrete.instances_walked");
    ("template.class_fits", counter "template.class_fits");
    ("template.instantiations", counter "template.instantiations");
    ("template.fallbacks", counter "template.fallbacks");
    ("scaled.template_exact", counter "scaled.template_exact");
    ("scaled.interpolated", counter "scaled.interpolated");
    ("count.points_enumerated", counter "count.points_enumerated");
    ("count.bset_calls", counter "count.bset_calls");
    ("count.cache_hits", counter "count.cache_hits");
    ("count.cache_misses", counter "count.cache_misses");
    ("count.qpoly_hits", counter "count.qpoly_hits");
    ("count.qpoly_fallbacks", counter "count.qpoly_fallbacks");
    ("analysis.check_s", self "analysis");
    ("analysis.capacity_exact", counter "analysis.capacity_exact");
    ("analysis.capacity_fallback", counter "analysis.capacity_fallback");
    ("dse.self_s", self "dse");
    ("serve.codec_in_s", self "codec_in");
    ("serve.codec_out_s", self "codec_out");
    ("serve.hit_s", self ~cls:"hit" "serve");
    ("serve.miss_s", self ~cls:"miss" "serve");
    ("serve.template_lookups", tlookups);
    ( "serve.template_hit_ratio",
      ratio (counter "serve.template_cache_hits") tlookups );
    ("obs.spans", float_of_int (List.length spans));
  ]

(* Per-layer figures of an accounting round: calls and allocation per
   benchmark layer, and the workload's own tallies of its outputs. *)
let accounting_layers (summary : summary) : (string * float) list =
  let acc k = Hashtbl.find_opt accs k in
  let calls k = match acc k with Some a -> float_of_int a.calls | None -> 0. in
  let alloc k = match acc k with Some a -> mb_of_words a.words | None -> 0. in
  let own n = Option.value ~default:0. (List.assoc_opt n summary.counts) in
  let ratio a b = if b > 0. then a /. b else 0. in
  [
    ("sim.calls", calls "sim");
    ("sim.alloc_mb", alloc "sim");
    ("sim.cycles_total", own "sim.cycles_total");
    ("concrete.calls", calls "model");
    ("concrete.alloc_mb", alloc "model");
    ("analysis.calls", calls "analysis");
    ("analysis.alloc_mb", alloc "analysis");
    ("dse.calls", calls "dse");
    ("dse.alloc_mb", alloc "dse");
    ("dse.generated", own "dse.generated");
    ("dse.evaluated", own "dse.evaluated");
    ("dse.evaluated_ratio", ratio (own "dse.evaluated") (own "dse.generated"));
    ("dse.pruned_precheck", own "dse.pruned_precheck");
    ("dse.pruned_symmetry", own "dse.pruned_symmetry");
    ("dse.pruned_capacity", own "dse.pruned_capacity");
    ("dse.pruned_dominated", own "dse.pruned_dominated");
    ("serve.calls", calls "serve");
    ("serve.codec_alloc_mb", alloc "codec_in" +. alloc "codec_out");
    ("serve.hit_alloc_mb", own "serve.hit_alloc_mb");
    ("serve.lookups", own "serve.lookups");
    ("serve.hits", own "serve.hits");
    ("serve.hit_ratio", ratio (own "serve.hits") (own "serve.lookups"));
  ]

(* Peak resident set of this process, from the kernel. *)
let peak_rss_mb () : float =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1e3)
        | _ -> scan ()
        | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
      in
      scan ())

let run_round (w : workload) ~(trace : bool) ~(traced : bool) ~(full : bool) :
    round =
  let reps = if traced then 1 else w.setup_reps in
  Hashtbl.reset accs;
  if traced then begin
    Obs.reset ();
    Obs.set_span_capacity span_capacity;
    if not (Obs.enabled ()) then Obs.enable ();
    mode := `Spans
  end
  else if trace then mode := `Accounting;
  let setup_s = ref [] and pass = ref None in
  for _ = 1 to reps do
    w.reset ();
    let t0 = now () in
    let p = w.setup () in
    setup_s := (now () -. t0) :: !setup_s;
    pass := Some p
  done;
  let p = Option.get !pass in
  let n = p.n_ops in
  let lat = Array.make n 0. in
  let checks = Array.make n (fun () -> { digest = ""; error = None }) in
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  for i = 0 to n - 1 do
    let a = now () in
    let c =
      try
        if traced then Obs.with_trace ~trace:(op_trace i) (fun () -> p.op i)
        else p.op i
      with e ->
        let msg = Printexc.to_string e in
        fun () -> { digest = ""; error = Some msg }
    in
    lat.(i) <- now () -. a;
    checks.(i) <- c
  done;
  let pass_s = now () -. t0 in
  let g1 = Gc.quick_stat () in
  let rss_mb = peak_rss_mb () in
  let accounted = !mode = `Accounting in
  mode := `Plain;
  let errors = ref [] in
  let digests =
    Array.mapi
      (fun i c ->
        match c () with
        | { digest; error = None } -> digest
        | { digest; error = Some e } ->
            errors := (i, e) :: !errors;
            digest
        | exception e ->
            errors := (i, Printexc.to_string e) :: !errors;
            "")
      checks
  in
  let summary = p.summary ~full in
  errors := List.rev_append summary.failures !errors;
  let layers =
    if traced then span_layers p summary
    else if accounted then accounting_layers summary
    else []
  in
  if traced then Obs.disable ();
  {
    traced;
    setup_s = List.rev !setup_s;
    pass_s;
    lat;
    alloc_words = words g1 -. words g0;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    digests;
    errors = List.rev !errors;
    summary;
    layers;
    rss_mb;
  }

(* The number of rounds is [seconds] over the workload's nominal round
   time, not however many fit in [seconds]: two builds of the program
   are then scored over the same number of passes whatever their speed.
   At least three rounds; under --trace 1 at least four, every other
   one traced. *)
let n_rounds (w : workload) ~(seconds : float) ~(trace : bool) : int =
  let k = max 3 (Float.to_int (seconds /. w.round_s)) in
  if trace then max 4 k else k

let run (w : workload) ~(seconds : float) ~(trace : bool) : round list =
  let rounds = ref [] in
  for k = 0 to n_rounds w ~seconds ~trace - 1 do
    let traced = trace && k mod 2 = 1 in
    rounds := run_round w ~trace ~traced ~full:(k = 0) :: !rounds
  done;
  List.rev !rounds

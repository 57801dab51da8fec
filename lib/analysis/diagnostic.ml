(* Structured diagnostics for the relation-centric model checker.

   Every finding carries a stable code (TNxxx), a severity, a human
   message and, when the property is refuted on a concrete point, a
   machine-readable witness.  Codes are append-only: once published they
   keep their meaning so scripts can match on them. *)

module Json = Tenet_obs.Json

type severity = Error | Warning | Info

type witness = {
  wspace : string; (* what the point ranges over, e.g. "S[i,j,k] -> S[i',j',k']" *)
  wpoint : int array;
  wnote : string; (* short human gloss, may be empty *)
}

type t = {
  code : string;
  title : string;
  severity : severity;
  message : string;
  witness : witness option;
}

(* The published code registry; [docs/analysis.md] mirrors this table. *)
let registry : (string * severity * string * string) list =
  [
    ( "TN001", Error, "rank-mismatch",
      "space-stamp rank differs from the PE-array rank" );
    ( "TN002", Error, "out-of-array",
      "an instance's space stamp escapes the PE array" );
    ( "TN003", Error, "pe-conflict",
      "theta is not injective: two instances share a spacetime-stamp" );
    ( "TN004", Error, "causality-violation",
      "a RAW dependence runs backwards in time (negative lexicographic \
       time delta)" );
    ( "TN005", Error, "malformed-interconnect",
      "interconnect endpoints escape the array, or the relation has the \
       wrong rank or self-loops" );
    ( "TN006", Error, "infeasible-reuse",
      "the model credits spatial reuse that no interconnect wire can \
       carry" );
    ( "TN007", Warning, "empty-domain",
      "the iteration domain is empty; every metric is trivially zero" );
    ( "TN008", Warning, "unused-iterator",
      "an iterator with extent > 1 appears in no stamp coordinate" );
    ( "TN009", Error, "unknown-iterator",
      "a stamp coordinate references a name that is not an iterator" );
    ( "TN010", Warning, "degenerate-space-dim",
      "a space coordinate is constant over the domain while the array \
       dimension is wider than 1" );
    ( "TN011", Error, "theta-not-single-valued",
      "retired: never emitted; it reported a raw spacetime relation \
       mapping one instance to several stamps" );
    ( "TN012", Error, "count-verify-mismatch",
      "retired: never emitted; it reported the removed counting \
       sanitizer's mismatches" );
    ( "TN013", Warning, "deadline-exceeded",
      "a serve/batch request ran past its deadline_ms; pipeline stages \
       past the expiry were skipped and the response is partial" );
    ( "TN014", Error, "buffer-overflow",
      "the live working set exceeds a declared buffer capacity (per-PE \
       registers or chip-level scratchpad)" );
    ( "TN015", Error, "link-contention",
      "an interconnect wire carries more distinct transfers in one cycle \
       than its declared width" );
    ( "TN016", Error, "port-conflict",
      "a PE demands more operand ports in one cycle than it declares" );
    ( "TN017", Error, "fanout-overflow",
      "a wire feeds more destinations in one cycle than its declared \
       multicast fan-out" );
    ( "TN018", Error, "dram-oversubscription",
      "per-cycle off-chip working-set inflow exceeds the declared DRAM \
       bandwidth" );
    ( "TN019", Info, "no-capacities-declared",
      "the architecture declares no resource capacities, so the \
       feasibility checks TN014-TN018 are vacuous" );
  ]

(* One documentation paragraph per code: the single source behind both
   `tenet check --explain TNxxx` and the docs/analysis.md table, so the
   CLI and the manual cannot drift apart. *)
let explanations : (string * string) list =
  [
    ( "TN001",
      "The dataflow's space stamp has a different number of coordinates \
       than the PE array has dimensions, so instances cannot be placed at \
       all.  Fix the space tuple or pick an architecture of matching rank." );
    ( "TN002",
      "Some loop instance's space stamp lies outside the PE array: the \
       witness is a concrete iteration point and the PE it would land on.  \
       Either shrink the spatial extent (tile) or widen the array." );
    ( "TN003",
      "Theta is not injective: two distinct instances map to the same \
       (PE, time) stamp, i.e. one MAC would have to do two jobs in one \
       cycle.  The witness is such a pair." );
    ( "TN004",
      "A read-after-write dependence is scheduled backwards: the reading \
       instance runs strictly before the writing instance in time.  The \
       witness is the offending (writer, reader) pair." );
    ( "TN005",
      "The interconnect relation is malformed: endpoints outside the \
       array, a rank that does not match the array, or self-loop wires at \
       transfer interval >= 1 (same-PE reuse is the temporal channel)." );
    ( "TN006",
      "The volume model would credit spatial reuse along PE pairs no \
       physical wire connects (self-loops or out-of-array endpoints of a \
       custom topology), silently deflating traffic.  The witness is a \
       credited (stamp, element) pair." );
    ( "TN007",
      "The iteration domain is empty (some iterator has hi < lo); every \
       metric is trivially zero.  Usually a sign of a bad size override." );
    ( "TN008",
      "An iterator with extent > 1 appears in no space or time \
       coordinate, so distinct instances collapse onto shared stamps." );
    ( "TN009",
      "A stamp coordinate references a name that is not an iterator of \
       the operation; the dataflow cannot be evaluated." );
    ( "TN010",
      "A space coordinate is the same constant over the whole domain \
       while the array dimension is wider than one PE, leaving the rest \
       of that dimension idle." );
    ( "TN011",
      "Retired: no check emits this code, and it will not be reused.  It \
       reported a raw spacetime relation (a hand-written Theta) that maps \
       one instance to several stamps.  No command or request builds such \
       a relation: a dataflow's Theta is single-valued by construction, \
       and TN003 checks its injectivity." );
    ( "TN012",
      "Retired: no check emits this code, and it will not be reused.  It \
       reported the counting sanitizer, a runtime mode that re-counted \
       every set by enumeration and failed on a disagreement.  The oracle \
       suite (test/test_oracle.ml) now makes those comparisons in every \
       test run." );
    ( "TN013",
      "A serve/batch request ran past its deadline_ms budget; pipeline \
       stages past the expiry were skipped and the response is partial \
       (see docs/serving.md)." );
    ( "TN014",
      "The live working set overflows a declared buffer: per PE, the \
       distinct tensor elements an instance touches in one cycle exceed \
       pe_regs; or chip-wide, the distinct elements resident in one cycle \
       exceed scratchpad_bytes (4 bytes per word).  Occupancy is the \
       cardinality of a slice of the data-assignment relation; when \
       Qpoly.prove_ge certifies the bound symbolically the verdict is \
       exact for all sizes, otherwise per-timestamp enumeration decides \
       it.  The witness is the peak (PE, time) or time stamp." );
    ( "TN015",
      "Two or more distinct transfers ride the same interconnect wire in \
       the same cycle, exceeding the declared link_width.  Transfers \
       attribute each fetched element to its lexicographically least \
       holding neighbor, mirroring the simulator's sharing rule.  The \
       witness is a (time, source PE, destination PE) triple." );
    ( "TN016",
      "One instance demands more operand ports (reads plus writes) in \
       its execution cycle than the declared pe_ports.  The demand is \
       the operation's access count, so the verdict is exact for all \
       sizes.  The witness is a concrete instance." );
    ( "TN017",
      "A single wire would have to feed more destination PEs in one \
       cycle than the declared max_fanout allows.  The witness is the \
       peak (time, source PE) pair." );
    ( "TN018",
      "The per-cycle inflow of new tensor elements onto the chip (the \
       working-set delta between consecutive time stamps, the same \
       fetch-on-first-use assumption lib/sim/offchip makes) exceeds the \
       declared dram_bw words per cycle.  The witness is the peak time \
       stamp." );
    ( "TN019",
      "The architecture declares no capacity fields (scratchpad_bytes, \
       pe_regs, link_width, pe_ports, max_fanout, dram_bw), so the \
       resource-feasibility checks TN014-TN018 are vacuous and the \
       dataflow is only checked for logical validity.  Declare \
       capacities (or pass --capacities to the check sweep) to enable \
       them.  Info-level: never fails a check." );
  ]

let explain code = List.assoc_opt code explanations

let severity_of_code code =
  let rec go = function
    | [] -> invalid_arg ("Diagnostic: unknown code " ^ code)
    | (c, sev, _, _) :: rest -> if String.equal c code then sev else go rest
  in
  go registry

let title_of_code code =
  let rec go = function
    | [] -> invalid_arg ("Diagnostic: unknown code " ^ code)
    | (c, _, t, _) :: rest -> if String.equal c code then t else go rest
  in
  go registry

(* Constructor: severity and title come from the registry, and each
   emission bumps the per-code telemetry counter (analysis.TNxxx). *)
let make ?witness code message : t =
  Tenet_obs.count ("analysis." ^ code);
  {
    code;
    title = title_of_code code;
    severity = severity_of_code code;
    message;
    witness;
  }

let witness ?(note = "") ~space point : witness =
  { wspace = space; wpoint = point; wnote = note }

let is_error d = d.severity = Error
let errors ds = List.filter is_error ds

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

(* Total order for byte-stable reports: code first, then witness (absent
   witnesses sort before present ones, then by space and point), then
   message.  [Checker.check] sorts its output with this, so a report is
   identical at any --jobs level or check-scheduling order. *)
let compare_diag (a : t) (b : t) : int =
  let c = String.compare a.code b.code in
  if c <> 0 then c
  else
    let wkey = function
      | None -> ("", [||], "")
      | Some w -> (w.wspace, w.wpoint, w.wnote)
    in
    let c = compare (wkey a.witness) (wkey b.witness) in
    if c <> 0 then c else String.compare a.message b.message

let to_string (d : t) : string =
  let w =
    match d.witness with
    | None -> ""
    | Some w ->
        Printf.sprintf "\n    witness: %s = (%s)%s" w.wspace
          (String.concat ", " (Array.to_list (Array.map string_of_int w.wpoint)))
          (if w.wnote = "" then "" else "  -- " ^ w.wnote)
  in
  Printf.sprintf "%s [%s] %s: %s%s" d.code
    (severity_to_string d.severity)
    d.title d.message w

let to_json (d : t) : Json.t =
  Json.Obj
    [
      ("code", Json.String d.code);
      ("title", Json.String d.title);
      ("severity", Json.String (severity_to_string d.severity));
      ("message", Json.String d.message);
      ( "witness",
        match d.witness with
        | None -> Json.Null
        | Some w ->
            Json.Obj
              [
                ("space", Json.String w.wspace);
                ( "point",
                  Json.List
                    (List.map (fun i -> Json.Int i) (Array.to_list w.wpoint))
                );
                ("note", Json.String w.wnote);
              ] );
    ]

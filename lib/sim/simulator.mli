(** A cycle-level simulator for tensor dataflows on spatial
    architectures — the executable ground truth for the Figure 11
    accuracy study (see DESIGN.md's substitution table).

    The machine executes time-stamps in lexicographic order; each PE
    keeps a register file per tensor holding the elements touched in the
    last [window] stamps it was busy; interval-1 interconnects forward
    elements a neighbor holds, interval-0 wires share one fetch per
    element per cycle; scratchpad traffic is limited to [bandwidth]
    words/cycle and surplus shows up as stall cycles; output partial sums
    write back on eviction and reload when they return.

    It shares the IR, iteration, mixed-radix encodings, staged
    evaluators, the interconnect predecessor table and pass 1 (stamp
    order and the conflict check) with {!Tenet_model.Concrete}, and none
    of the analytical models' reuse, attribution, counting or metric
    logic. *)

type tensor_traffic = {
  tensor : string;
  direction : Tenet_ir.Tensor_op.direction;
  fetches : int;
  writebacks : int;
}

type result = {
  cycles : int;  (** observed latency *)
  busy_pe_cycles : int;
  n_instances : int;
  pe_size : int;
  utilization : float;  (** instances / (PEs x cycles) *)
  traffic : tensor_traffic list;
  stalled_cycles : int;
  peak_pe_live : int;
      (** max distinct elements resident in one PE's registers after a
          stamp commits — the machine-observed TN014 (per-PE) demand *)
  peak_chip_live : int;
      (** max distinct (tensor, element) pairs alive in one stamp — the
          TN014 (scratchpad) demand *)
  peak_link_load : int;
      (** max transfers carried by one interconnect edge in one stamp
          (lex-least-supplier attribution) — the TN015 demand *)
  peak_fanout : int;
      (** max destinations one (source PE, element) pair feeds in one
          stamp — the TN017 demand *)
}

val run :
  ?window:int ->
  ?trace:(string -> int array -> unit) ->
  Tenet_arch.Spec.t ->
  Tenet_ir.Tensor_op.t ->
  Tenet_dataflow.Dataflow.t ->
  result
(** [window] defaults to 1 (single-stamp registers).  [trace] is invoked
    with (tensor, element) for every scratchpad access, in program order,
    feeding {!Reuse_distance}.  The element array may be a buffer the
    simulator reuses: it is valid only during the call, so a callback
    that keeps it must copy it.

    Raises {!Tenet_model.Concrete.Invalid_dataflow} before simulating
    when the space stamp's rank is not the PE array's or a space
    coordinate leaves the array (the texts of
    {!Tenet_dataflow.Dataflow.space_violation}), when a time-stamp or
    element code space or the instance count is past the int range,
    and when two instances share a spacetime-stamp. *)

val to_string : result -> string

val to_json : result -> Tenet_obs.Json.t
(** Machine-readable form with stable keys (CLI [--json]). *)

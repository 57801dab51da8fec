(** A complete spatial-architecture specification. *)

type t = {
  pe : Pe_array.t;
  topology : Interconnect.t;
  bandwidth : int;  (** scratchpad words per cycle *)
  buffer_words : int option;  (** scratchpad capacity, if bounded *)
  energy : Energy.t;
  scratchpad_bytes : int option;
      (** on-chip working-set budget in bytes (TN014 chip-level check) *)
  pe_regs : int option;
      (** per-PE register-file capacity in words (TN014 per-PE check) *)
  link_width : int option;
      (** distinct words one interconnect wire carries per cycle (TN015) *)
  pe_ports : int option;
      (** operand ports into one PE per cycle (TN016) *)
  max_fanout : int option;
      (** destinations one wire may feed in a single cycle (TN017) *)
  dram_bw : int option;  (** off-chip words per cycle (TN018) *)
}

val make :
  ?bandwidth:int ->
  ?buffer_words:int ->
  ?energy:Energy.t ->
  ?scratchpad_bytes:int ->
  ?pe_regs:int ->
  ?link_width:int ->
  ?pe_ports:int ->
  ?max_fanout:int ->
  ?dram_bw:int ->
  pe:Pe_array.t ->
  topology:Interconnect.t ->
  unit ->
  t
(** Defaults: 64 words/cycle, unbounded buffer, {!Energy.default}, and no
    declared capacities (every capacity field is [None], so the analysis
    capacity battery is skipped).  Raises [Invalid_argument] on a
    non-positive bandwidth or capacity. *)

val with_bandwidth : int -> t -> t

val with_capacities :
  ?scratchpad_bytes:int ->
  ?pe_regs:int ->
  ?link_width:int ->
  ?pe_ports:int ->
  ?max_fanout:int ->
  ?dram_bw:int ->
  t ->
  t
(** Declare (or override) capacity fields; fields not passed keep their
    current value. *)

val has_capacities : t -> bool
(** Whether any capacity field is declared.  [false] means the capacity
    checks (TN014-TN018) are vacuous and TN019 lints. *)

val to_string : t -> string

(** The key of what depends only on a spec's topology and PE-array dims
    (interconnect predecessors, architecture diagnostics).  Equality and
    hashing are structural, so a re-parsed [Custom] relation finds the
    entry of the one it repeats. *)
module Array_key : Hashtbl.HashedType with type t = Interconnect.t * int array

val array_key : t -> Array_key.t

val array_memo_entries : int
(** The bound of a memo table keyed by {!Array_key}. *)

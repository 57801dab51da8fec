(* A complete spatial-architecture specification: PE array, interconnect
   topology, scratchpad bandwidth, energy coefficients and optional
   resource capacities.

   Capacity fields are all optional: a spec that declares none behaves
   exactly as before (the analysis capacity battery is skipped and no
   TN014-TN018 diagnostic can fire), so every existing spec parses and
   evaluates unchanged. *)

type t = {
  pe : Pe_array.t;
  topology : Interconnect.t;
  bandwidth : int; (* scratchpad words per cycle *)
  buffer_words : int option; (* on-chip scratchpad capacity, if bounded *)
  energy : Energy.t;
  scratchpad_bytes : int option; (* on-chip working-set budget, bytes *)
  pe_regs : int option; (* per-PE register-file words *)
  link_width : int option; (* distinct words one wire carries per cycle *)
  pe_ports : int option; (* operand ports into one PE per cycle *)
  max_fanout : int option; (* destinations one wire feeds per cycle *)
  dram_bw : int option; (* off-chip words per cycle *)
}

let make ?(bandwidth = 64) ?buffer_words ?(energy = Energy.default)
    ?scratchpad_bytes ?pe_regs ?link_width ?pe_ports ?max_fanout ?dram_bw ~pe
    ~topology () =
  if bandwidth <= 0 then invalid_arg "Spec.make: bandwidth must be positive";
  List.iter
    (fun (name, v) ->
      match v with
      | Some c when c <= 0 ->
          invalid_arg (Printf.sprintf "Spec.make: %s must be positive" name)
      | _ -> ())
    [
      ("scratchpad_bytes", scratchpad_bytes);
      ("pe_regs", pe_regs);
      ("link_width", link_width);
      ("pe_ports", pe_ports);
      ("max_fanout", max_fanout);
      ("dram_bw", dram_bw);
    ];
  {
    pe;
    topology;
    bandwidth;
    buffer_words;
    energy;
    scratchpad_bytes;
    pe_regs;
    link_width;
    pe_ports;
    max_fanout;
    dram_bw;
  }

let with_bandwidth bandwidth t = { t with bandwidth }

let with_capacities ?scratchpad_bytes ?pe_regs ?link_width ?pe_ports
    ?max_fanout ?dram_bw t =
  {
    t with
    scratchpad_bytes =
      (match scratchpad_bytes with Some _ -> scratchpad_bytes | None -> t.scratchpad_bytes);
    pe_regs = (match pe_regs with Some _ -> pe_regs | None -> t.pe_regs);
    link_width =
      (match link_width with Some _ -> link_width | None -> t.link_width);
    pe_ports = (match pe_ports with Some _ -> pe_ports | None -> t.pe_ports);
    max_fanout =
      (match max_fanout with Some _ -> max_fanout | None -> t.max_fanout);
    dram_bw = (match dram_bw with Some _ -> dram_bw | None -> t.dram_bw);
  }

let has_capacities t =
  t.scratchpad_bytes <> None || t.pe_regs <> None || t.link_width <> None
  || t.pe_ports <> None || t.max_fanout <> None || t.dram_bw <> None

let to_string t =
  Printf.sprintf "%s PEs, %s, %d words/cycle"
    (Pe_array.to_string t.pe)
    (Interconnect.name t.topology)
    t.bandwidth

module Array_key = struct
  type t = Interconnect.t * int array

  let equal : t -> t -> bool = ( = )
  let hash : t -> int = Hashtbl.hash
end

let array_key t = (t.topology, Pe_array.dims t.pe)

(* The repository has 7 architectures, serve names no others, and the
   test suite's zoo sweeps reach 17. *)
let array_memo_entries = 64

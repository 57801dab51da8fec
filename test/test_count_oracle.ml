(* Randomized differential test of the counting engine.

   The engine ({!Tenet_isl.Count}) layers closed-form tail summation,
   Faulhaber width sums, Gaussian substitution and a memo cache on top of
   plain enumeration; every one of those shortcuts must be invisible in
   the results.  So: generate random quasi-affine basic sets (bounded
   boxes with extra coupling inequalities, equalities and floor-division
   existentials) and compare [count_bset] / [iter_bset] / [make_mem_bset]
   / [count_union] against a brute-force oracle that enumerates the
   bounding box and checks constraints pointwise.  Div-defined
   existentials have a unique witness, which the oracle computes
   directly. *)

module Isl = Tenet_isl
module Bset = Isl.Bset
module Count = Isl.Count
module IM = Tenet_util.Int_math
module Obs = Tenet_obs

let rand_int st lo hi = lo + Random.State.int st (hi - lo + 1)

(* --- generator ------------------------------------------------------ *)

(* A random basic set together with the box bounding its visible dims.
   Every set is bounded (box constraints are always emitted), so the
   engine never raises [Unbounded]. *)
let gen_bset ?(nvis = 0) st : Bset.t * (int * int) array =
  let nvis = if nvis > 0 then nvis else rand_int st 1 3 in
  let ndivs = rand_int st 0 2 in
  let nvars = nvis + ndivs in
  let box =
    Array.init nvis (fun _ ->
        let lo = rand_int st (-3) 2 in
        (lo, lo + rand_int st 0 5))
  in
  let cons = ref [] in
  Array.iteri
    (fun i (lo, hi) ->
      let a = Array.make nvars 0 in
      a.(i) <- 1;
      cons := { Bset.a; k = -lo; eq = false } :: !cons;
      let a = Array.make nvars 0 in
      a.(i) <- -1;
      cons := { Bset.a; k = hi; eq = false } :: !cons)
    box;
  let defs =
    Array.init ndivs (fun e ->
        let num = Array.make nvars 0 in
        for v = 0 to nvis + e - 1 do
          num.(v) <- rand_int st (-2) 2
        done;
        Some { Bset.num; dk = rand_int st (-3) 3; den = rand_int st 2 4 })
  in
  for _ = 1 to rand_int st 0 3 do
    let a = Array.init nvars (fun _ -> rand_int st (-2) 2) in
    let eq = rand_int st 0 4 = 0 in
    (* equalities get a generous constant so a useful fraction of the
       generated sets stay nonempty *)
    let k = rand_int st (-4) (if eq then 8 else 6) in
    cons := { Bset.a; k; eq } :: !cons
  done;
  ({ Bset.nvis; defs; cons = !cons }, box)

(* A mod/fdiv-heavy random set shaped like the systems `Dataflow.theta`
   produces: loop dims tiled by floor divisions, plus "stamp" dims pinned
   by equalities to mod/fdiv/skew combinations of the loops.  This is the
   fragment the qpoly engine must sum in closed form — stamp equalities
   eliminate through div-defined existentials, div bound pairs cancel to
   width 1, and the loop box sums by Faulhaber. *)
let gen_bset_modheavy st : Bset.t * (int * int) array =
  let nloop = rand_int st 1 2 in
  let nstamp = rand_int st 1 2 in
  let nvis = nloop + nstamp in
  let ndivs = rand_int st 1 2 in
  let nvars = nvis + ndivs in
  let loop_box =
    Array.init nloop (fun _ ->
        let lo = rand_int st (-2) 1 in
        (lo, lo + rand_int st 3 12))
  in
  let cons = ref [] in
  Array.iteri
    (fun i (lo, hi) ->
      let a = Array.make nvars 0 in
      a.(i) <- 1;
      cons := { Bset.a; k = -lo; eq = false } :: !cons;
      let a = Array.make nvars 0 in
      a.(i) <- -1;
      cons := { Bset.a; k = hi; eq = false } :: !cons)
    loop_box;
  (* divs: e = floor((c*loop + k) / den) *)
  let divs =
    Array.init ndivs (fun _ ->
        let v = rand_int st 0 (nloop - 1) in
        let c = if rand_int st 0 3 = 0 then -1 else 1 in
        let k = rand_int st (-2) 2 in
        let den = rand_int st 2 4 in
        (v, c, k, den))
  in
  let defs =
    Array.map
      (fun (v, c, k, den) ->
        let num = Array.make nvars 0 in
        num.(v) <- c;
        Some { Bset.num; dk = k; den })
      divs
  in
  (* interval of the div value and of the mod remainder (c*v + k - den*e) *)
  let div_iv e =
    let v, c, k, den = divs.(e) in
    let lo, hi = loop_box.(v) in
    let a = (c * lo) + k and b = (c * hi) + k in
    (IM.fdiv (min a b) den, IM.fdiv (max a b) den)
  in
  (* stamp s = pattern over loops/divs, pinned by an equality; the box
     entry for s is the pattern's value interval *)
  let stamp_box =
    Array.init nstamp (fun _ ->
        let a = Array.make nvars 0 in
        let lo = ref 0 and hi = ref 0 in
        let n_terms = rand_int st 1 2 in
        for _ = 1 to n_terms do
          match rand_int st 0 2 with
          | 0 ->
              (* mod term: the emitted c*v - den*e equals
                 ((c*v + k) mod den) - k, so its value is in
                 [-k, den - 1 - k] exactly *)
              let e = rand_int st 0 (ndivs - 1) in
              let v, c, k, den = divs.(e) in
              a.(v) <- a.(v) + c;
              a.(nvis + e) <- a.(nvis + e) - den;
              lo := !lo - k;
              hi := !hi + den - 1 - k
          | 1 ->
              (* fdiv term: the div value itself *)
              let e = rand_int st 0 (ndivs - 1) in
              a.(nvis + e) <- a.(nvis + e) + 1;
              let dlo, dhi = div_iv e in
              lo := !lo + dlo;
              hi := !hi + dhi
          | _ ->
              (* skew term: a plain loop dim *)
              let v = rand_int st 0 (nloop - 1) in
              a.(v) <- a.(v) + 1;
              let vlo, vhi = loop_box.(v) in
              lo := !lo + vlo;
              hi := !hi + vhi
        done;
        (a, !lo, !hi))
  in
  Array.iteri
    (fun s (a, _, _) ->
      let eqa = Array.copy a in
      eqa.(nloop + s) <- -1;
      cons := { Bset.a = eqa; k = 0; eq = true } :: !cons)
    stamp_box;
  let box =
    Array.init nvis (fun i ->
        if i < nloop then loop_box.(i)
        else
          let _, lo, hi = stamp_box.(i - nloop) in
          (lo, hi))
  in
  ({ Bset.nvis; defs; cons = !cons }, box)

(* --- oracle --------------------------------------------------------- *)

let oracle_mem (b : Bset.t) (vis : int array) : bool =
  let nvars = Bset.nvars b in
  let full = Array.make nvars 0 in
  Array.blit vis 0 full 0 b.Bset.nvis;
  Array.iteri
    (fun e d ->
      match d with
      | Some (d : Bset.def) ->
          let s = ref d.Bset.dk in
          Array.iteri
            (fun v c -> if c <> 0 then s := !s + (c * full.(v)))
            d.Bset.num;
          full.(b.Bset.nvis + e) <- IM.fdiv !s d.Bset.den
      | None -> assert false)
    b.Bset.defs;
  List.for_all
    (fun (c : Bset.con) ->
      let s = ref c.Bset.k in
      Array.iteri (fun v coeff -> s := !s + (coeff * full.(v))) c.Bset.a;
      if c.Bset.eq then !s = 0 else !s >= 0)
    b.Bset.cons

let iter_box (box : (int * int) array) (f : int array -> unit) : unit =
  let n = Array.length box in
  let p = Array.make n 0 in
  let rec walk i =
    if i = n then f p
    else begin
      let lo, hi = box.(i) in
      for v = lo to hi do
        p.(i) <- v;
        walk (i + 1)
      done
    end
  in
  walk 0

let oracle_count (b : Bset.t) (box : (int * int) array) : int =
  let n = ref 0 in
  iter_box box (fun p -> if oracle_mem b p then incr n);
  !n

let oracle_points (b : Bset.t) (box : (int * int) array) : int array list =
  let acc = ref [] in
  iter_box box (fun p -> if oracle_mem b p then acc := Array.copy p :: !acc);
  List.sort compare !acc

let box_union (boxes : (int * int) array list) : (int * int) array =
  match boxes with
  | [] -> [||]
  | first :: rest ->
      let acc = Array.copy first in
      List.iter
        (Array.iteri (fun i (lo, hi) ->
             let alo, ahi = acc.(i) in
             acc.(i) <- (min alo lo, max ahi hi)))
        rest;
      acc

let show_bset (b : Bset.t) : string =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "nvis=%d ndivs=%d\n" b.Bset.nvis
                           (Array.length b.Bset.defs));
  Array.iter
    (function
      | Some (d : Bset.def) ->
          Buffer.add_string buf
            (Printf.sprintf "  div: num=[%s] dk=%d den=%d\n"
               (String.concat ";"
                  (Array.to_list (Array.map string_of_int d.Bset.num)))
               d.Bset.dk d.Bset.den)
      | None -> Buffer.add_string buf "  div: free\n")
    b.Bset.defs;
  List.iter
    (fun (c : Bset.con) ->
      Buffer.add_string buf
        (Printf.sprintf "  con: a=[%s] k=%d %s\n"
           (String.concat ";"
              (Array.to_list (Array.map string_of_int c.Bset.a)))
           c.Bset.k
           (if c.Bset.eq then "= 0" else ">= 0")))
    b.Bset.cons;
  Buffer.contents buf

(* --- tests ---------------------------------------------------------- *)

let n_single = 1200
let n_union = 400

let test_count_bset () =
  let st = Random.State.make [| 0x7e4e7 |] in
  for i = 1 to n_single do
    let b, box = gen_bset st in
    let expect = oracle_count b box in
    let got = Count.count_bset b in
    if got <> expect then
      Alcotest.failf "count_bset mismatch at case %d: oracle %d, engine %d\n%s"
        i expect got (show_bset b)
  done

let test_iter_bset () =
  let st = Random.State.make [| 0xa11ce |] in
  for i = 1 to n_single / 2 do
    let b, box = gen_bset st in
    let expect = oracle_points b box in
    let acc = ref [] in
    Count.iter_bset b (fun p -> acc := Array.copy p :: !acc);
    let got = List.sort compare !acc in
    if got <> expect then
      Alcotest.failf
        "iter_bset mismatch at case %d: oracle %d points, engine %d\n%s" i
        (List.length expect) (List.length got) (show_bset b);
    (* iter must also agree with count *)
    let n = Count.count_bset b in
    if n <> List.length got then
      Alcotest.failf "iter/count mismatch at case %d: %d tuples vs count %d\n%s"
        i (List.length got) n (show_bset b)
  done

let test_mem_bset () =
  let st = Random.State.make [| 0xbeef1 |] in
  for i = 1 to n_single / 4 do
    let b, box = gen_bset st in
    let mem = Count.make_mem_bset b in
    iter_box box (fun p ->
        let expect = oracle_mem b p in
        if mem p <> expect then
          Alcotest.failf
            "make_mem_bset mismatch at case %d on [%s]: oracle %b\n%s" i
            (String.concat ";" (Array.to_list (Array.map string_of_int p)))
            expect (show_bset b);
        if Count.mem_bset b p <> expect then
          Alcotest.failf "mem_bset mismatch at case %d: oracle %b\n%s" i expect
            (show_bset b))
  done

let test_count_union () =
  let st = Random.State.make [| 0x5e7e5 |] in
  for i = 1 to n_union do
    let nvis = rand_int st 1 3 in
    let k = rand_int st 2 4 in
    let parts = List.init k (fun _ -> gen_bset ~nvis st) in
    let bs = List.map fst parts in
    let boxes = List.map snd parts in
    let hull = box_union boxes in
    let expect = ref 0 in
    iter_box hull (fun p ->
        if List.exists (fun b -> oracle_mem b p) bs then incr expect);
    let got = Count.count_union bs in
    if got <> !expect then
      Alcotest.failf "count_union mismatch at case %d: oracle %d, engine %d\n%s"
        i !expect got
        (String.concat "---\n" (List.map show_bset bs));
    (* iter_union visits each union point exactly once *)
    let seen = Hashtbl.create 64 in
    Count.iter_union bs (fun p ->
        if Hashtbl.mem seen (Array.copy p) then
          Alcotest.failf "iter_union duplicate at case %d" i;
        Hashtbl.replace seen (Array.copy p) ());
    if Hashtbl.length seen <> !expect then
      Alcotest.failf "iter_union mismatch at case %d: oracle %d, engine %d" i
        !expect (Hashtbl.length seen)
  done

(* The mod/fdiv-heavy population vs the oracle, and proof (via telemetry)
   that these shapes actually take the symbolic qpoly path. *)
let test_count_modheavy () =
  Count.cache_clear ();
  Obs.reset ();
  Obs.enable ();
  let st = Random.State.make [| 0x30d4 |] in
  for i = 1 to 400 do
    let b, box = gen_bset_modheavy st in
    let expect = oracle_count b box in
    let got = Count.count_bset b in
    if got <> expect then
      Alcotest.failf
        "modheavy count_bset mismatch at case %d: oracle %d, engine %d\n%s" i
        expect got (show_bset b)
  done;
  Obs.disable ();
  let v name = Obs.value (Obs.counter name) in
  Alcotest.(check bool) "qpoly fires on mod/fdiv shapes" true
    (v "count.qpoly_hits" > 0)

(* The fig8/table3 shape: Θ of a 16^3 GEMM on an 8x8 PE array.  Both the
   pair count and the distinct-stamp count (a range projection whose
   stamps are defined through mod/fdiv existentials) must come out in
   closed form — near-zero enumerated points — and bit-identical to the
   known cardinalities. *)
let test_fig8_closed_form () =
  let module Ir = Tenet_ir in
  let module Df = Tenet_dataflow in
  Count.cache_clear ();
  Obs.reset ();
  Obs.enable ();
  let op = Ir.Kernels.gemm ~ni:16 ~nj:16 ~nk:16 in
  let df = Df.Zoo.gemm_ij_p_ijk_t () in
  let th = Df.Dataflow.theta op df in
  let pairs = Isl.Map.card th in
  let stamps = Isl.Set.card (Isl.Map.range th) in
  Obs.disable ();
  Alcotest.(check int) "theta pairs" (16 * 16 * 16) pairs;
  Alcotest.(check int) "theta stamps" (16 * 16 * 16) stamps;
  let v name = Obs.value (Obs.counter name) in
  Alcotest.(check bool) "qpoly fires on theta" true (v "count.qpoly_hits" > 0);
  let points = v "count.points_enumerated" in
  if points > 64 then
    Alcotest.failf
      "theta counting should be closed form; enumerated %d points" points

(* The random sets must actually exercise the closed-form machinery —
   otherwise this file would happily pass while testing only the slow
   path.  Telemetry proves coverage. *)
let test_fast_paths_exercised () =
  Obs.reset ();
  Obs.enable ();
  let st = Random.State.make [| 0xfa57 |] in
  for _ = 1 to 300 do
    let b, _ = gen_bset st in
    ignore (Count.count_bset b)
  done;
  Obs.disable ();
  let v name = Obs.value (Obs.counter name) in
  Alcotest.(check bool) "qpoly fires" true (v "count.qpoly_hits" > 0);
  Alcotest.(check bool) "enumeration-side escapes fire" true
    (v "count.closed_tail_hits" + v "count.faulhaber_hits"
     + v "count.closed_form_hits"
     > 0);
  Alcotest.(check bool) "cache consulted" true
    (v "count.cache_hits" + v "count.cache_misses" > 0)

let () =
  Alcotest.run "count_oracle"
    [
      ( "oracle",
        [
          Alcotest.test_case "count_bset vs brute force" `Quick test_count_bset;
          Alcotest.test_case "iter_bset vs brute force" `Quick test_iter_bset;
          Alcotest.test_case "membership vs brute force" `Quick test_mem_bset;
          Alcotest.test_case "count_union vs brute force" `Quick
            test_count_union;
          Alcotest.test_case "mod/fdiv-heavy vs brute force" `Quick
            test_count_modheavy;
          Alcotest.test_case "fig8 shapes are closed form" `Quick
            test_fig8_closed_form;
          Alcotest.test_case "fast paths exercised" `Quick
            test_fast_paths_exercised;
        ] );
    ]

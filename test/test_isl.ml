(* Tests for tenet.isl: exact counting, relation algebra, the parser, and
   the worked examples of the paper (Figure 3 and Section V-A). *)

module Isl = Tenet.Isl
module Set = Isl.Set
module Map = Isl.Map
module Aff = Isl.Aff
module P = Isl.Parser

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Basic sets and counting.                                            *)
(* ------------------------------------------------------------------ *)

let test_box_card () =
  check_int "1D" 10 (Set.card (P.set "{ A[i] : 0 <= i < 10 }"));
  check_int "2D" 12 (Set.card (P.set "{ A[i,j] : 0 <= i < 4 and 0 <= j < 3 }"));
  check_int "empty" 0 (Set.card (P.set "{ A[i] : 0 <= i < 0 }"));
  check_int "point" 1 (Set.card (P.set "{ A[i] : i = 5 }"));
  check_int "negative range" 7 (Set.card (P.set "{ A[i] : -3 <= i <= 3 }"));
  check_int "huge box (closed form)" 1_000_000_000_000
    (Set.card (P.set "{ A[i,j] : 0 <= i < 1000000 and 0 <= j < 1000000 }"))

let test_triangle () =
  (* i + j <= 3 over 0..3: 10 points *)
  check_int "triangle" 10
    (Set.card (P.set "{ A[i,j] : 0 <= i and 0 <= j and i + j <= 3 }"));
  (* diagonal slice *)
  check_int "diagonal" 4
    (Set.card
       (P.set "{ A[i,j] : 0 <= i < 4 and 0 <= j < 4 and i = j }"))

let test_mod_div () =
  check_int "mod" 4 (Set.card (P.set "{ A[i] : 0 <= i < 10 and i mod 3 = 0 }"));
  check_int "mod %" 3 (Set.card (P.set "{ A[i] : 0 <= i < 9 and i % 3 = 1 }"));
  check_int "div" 4
    (Set.card (P.set "{ A[i] : 0 <= i < 10 and floor(i/4) = 1 }"));
  check_int "combined" 4
    (Set.card
       (P.set "{ A[i] : 0 <= i < 20 and i mod 2 = 0 and floor(i/8) = 1 }"))

let test_union_subtract () =
  let u = P.set "{ A[i] : (0 <= i < 10) or (5 <= i < 15) }" in
  check_int "union overlap counted once" 15 (Set.card u);
  let a = P.set "{ A[i] : 0 <= i < 10 }" in
  let b = P.set "{ A[i] : 3 <= i < 5 }" in
  check_int "subtract" 8 (Set.card (Set.subtract a b));
  check_int "subtract disjoint" 10
    (Set.card (Set.subtract a (P.set "{ A[i] : 20 <= i < 30 }")));
  check_int "subtract all" 0 (Set.card (Set.subtract a a));
  check_int "intersect" 2 (Set.card (Set.intersect a b))

let test_ne_expansion () =
  check_int "!=" 9 (Set.card (P.set "{ A[i] : 0 <= i < 10 and i != 4 }"))

let test_mem_sample () =
  let s = P.set "{ A[i,j] : 0 <= i < 4 and 0 <= j < 3 and i + j <= 3 }" in
  check_bool "mem in" true (Set.mem s [| 1; 2 |]);
  check_bool "mem out" false (Set.mem s [| 3; 3 |]);
  check_bool "mem out of box" false (Set.mem s [| 9; 0 |]);
  (match Set.sample s with
  | Some p -> check_bool "sample is member" true (Set.mem s p)
  | None -> Alcotest.fail "expected nonempty");
  check_bool "empty sample" true
    (Set.sample (P.set "{ A[i] : 0 <= i < 0 }") = None);
  check_bool "is_empty" true (Set.is_empty (P.set "{ A[i] : i < 0 and i > 0 }"))

let test_iter_points () =
  let s = P.set "{ A[i,j] : 0 <= i < 3 and 0 <= j < 3 and i <= j }" in
  let seen = ref [] in
  Set.iter_points (fun p -> seen := Array.to_list p :: !seen) s;
  check_int "iter count" 6 (List.length !seen);
  check_int "iter distinct" 6
    (List.length (List.sort_uniq compare !seen))

let test_projection () =
  let s = P.set "{ A[i,j] : 0 <= i < 4 and 0 <= j < 3 }" in
  let pi = Set.project ~keep:[ true; false ] s in
  check_int "project j away" 4 (Set.card pi);
  (* projection of a diagonal strip: distinct sums *)
  let d = P.set "{ A[i,j] : 0 <= i < 4 and 0 <= j < 3 and i = j }" in
  check_int "project diagonal" 3
    (Set.card (Set.project ~keep:[ false; true ] d))

let test_dim_bounds () =
  let s = P.set "{ A[i,j] : 2 <= i < 7 and 0 <= j < 3 }" in
  (match Set.dim_bounds ~dim:0 s with
  | Some (lo, hi) ->
      check_int "lo" 2 lo;
      check_int "hi" 6 hi
  | None -> Alcotest.fail "nonempty");
  check_bool "empty bounds" true
    (Set.dim_bounds ~dim:0 (P.set "{ A[i] : 1 <= i < 1 }") = None)

(* ------------------------------------------------------------------ *)
(* Maps.                                                               *)
(* ------------------------------------------------------------------ *)

let test_map_basics () =
  let m = P.map "{ S[i,j] -> A[i + j] : 0 <= i < 4 and 0 <= j < 3 }" in
  check_int "pairs" 12 (Map.card m);
  check_int "domain" 12 (Set.card (Map.domain m));
  check_int "range (distinct sums)" 6 (Set.card (Map.range m));
  check_bool "single valued" true (Map.is_single_valued m);
  check_bool "not injective" false (Map.is_injective m);
  check_int "reverse pairs" 12 (Map.card (Map.reverse m));
  check_int "wrap card" 12 (Set.card (Map.wrap m))

let test_map_eval_image () =
  let m = P.map "{ S[i,j] -> A[i + j, i - j] : 0 <= i < 4 and 0 <= j < 3 }" in
  (match Map.eval m [| 2; 1 |] with
  | Some out ->
      check_int "eval fst" 3 out.(0);
      check_int "eval snd" 1 out.(1)
  | None -> Alcotest.fail "in domain");
  check_bool "outside domain" true (Map.eval m [| 9; 9 |] = None);
  let inv = Map.reverse m in
  check_int "image of (3,1)" 1 (List.length (Map.image inv [| 3; 1 |]))

let test_apply_range () =
  (* S -> T -> U composition *)
  let a = P.map "{ S[i] -> T[2*i] : 0 <= i < 5 }" in
  let b = P.map "{ T[x] -> U[x + 1] : 0 <= x < 20 }" in
  let c = Map.apply_range a b in
  check_int "composition card" 5 (Map.card c);
  (match Map.eval c [| 3 |] with
  | Some out -> check_int "composed value" 7 out.(0)
  | None -> Alcotest.fail "in domain");
  (* composition through a relation (not a function) *)
  let r = P.map "{ T[x] -> U[y] : x <= y and y <= x + 1 }" in
  let cr = Map.apply_range a r in
  check_int "relation composition" 10 (Map.card cr)

let test_intersect_domain_range () =
  let m = P.map "{ S[i] -> A[i] : 0 <= i < 10 }" in
  let d = P.set "{ S[i] : 0 <= i < 3 }" in
  check_int "restrict domain" 3 (Map.card (Map.intersect_domain m d));
  let r = P.set "{ A[i] : 5 <= i < 10 }" in
  check_int "restrict range" 5 (Map.card (Map.intersect_range m r))

let test_map_subtract_union () =
  let m = P.map "{ S[i] -> A[i] : 0 <= i < 10 }" in
  let n = P.map "{ S[i] -> A[i] : 0 <= i < 4 }" in
  check_int "map subtract" 6 (Map.card (Map.subtract m n));
  let u = Map.union m (P.map "{ S[i] -> A[i + 1] : 0 <= i < 10 }") in
  check_int "map union" 20 (Map.card u)

let test_mem_fn () =
  let s = P.set "{ A[i,j] : 0 <= i < 8 and 0 <= j < 8 and i + j <= 9 }" in
  let f = Set.mem_fn s in
  let slow = Set.mem s in
  let agree = ref true in
  for i = -1 to 8 do
    for j = -1 to 8 do
      if f [| i; j |] <> slow [| i; j |] then agree := false
    done
  done;
  check_bool "mem_fn agrees with mem" true !agree

(* ------------------------------------------------------------------ *)
(* The paper's worked examples (Figure 3, Section V-A).                *)
(* ------------------------------------------------------------------ *)

let fig3_theta () =
  P.map
    "{ S[i,j,k] -> ST[i, j, i+j+k] : 0 <= i < 2 and 0 <= j < 2 and 0 <= k < 4 }"

let fig3_access_a () =
  P.map "{ S[i,j,k] -> A[i,k] : 0 <= i < 2 and 0 <= j < 2 and 0 <= k < 4 }"

let test_fig3_total_volume () =
  let assign = Map.apply_range (Map.reverse (fig3_theta ())) (fig3_access_a ()) in
  check_int "TotalVolume(A) full" 16 (Map.card assign);
  (* the paper's t <= 3 window: 1 + 3 + 4 + 4 = 12 *)
  let windowed = Map.constrain assign ~ges:[ Aff.(Int 3 - Var "_o2") ] in
  check_int "TotalVolume(A) t<=3 (paper: 12)" 12 (Map.card windowed)

let test_fig3_reuse_volume () =
  let assign = Map.apply_range (Map.reverse (fig3_theta ())) (fig3_access_a ()) in
  let m =
    P.map
      "{ ST[p1,p2,t] -> ST[q1,q2,u] : ((q1 = p1 and q2 = p2 + 1) or (q1 = p1 \
       + 1 and q2 = p2)) and u = t + 1 }"
  in
  let reuse = Map.intersect assign (Map.apply_range (Map.reverse m) assign) in
  let windowed =
    Map.constrain reuse
      ~ges:[ Aff.(Var "_o2" - Int 1); Aff.(Int 3 - Var "_o2") ]
  in
  check_int "ReuseVolume(A) t in [1,3] (paper: 5)" 5 (Map.card windowed);
  (* UniqueVolume = Total - Reuse on the same window: 12 - 5 = 7 *)
  let total_w =
    Map.card (Map.constrain assign ~ges:[ Aff.(Int 3 - Var "_o2") ])
  in
  check_int "UniqueVolume(A) t<=3 (paper: 7)" 7 (total_w - 5 - 0)

let test_fig3_y_stationary () =
  let acc_y =
    P.map "{ S[i,j,k] -> Y[i,j] : 0 <= i < 2 and 0 <= j < 2 and 0 <= k < 4 }"
  in
  let assign = Map.apply_range (Map.reverse (fig3_theta ())) acc_y in
  let mt =
    P.map "{ ST[p1,p2,t] -> ST[q1,q2,u] : q1 = p1 and q2 = p2 and u = t + 1 }"
  in
  let reuse = Map.intersect assign (Map.apply_range (Map.reverse mt) assign) in
  (* every use except the first per PE is a temporal reuse: 16 - 4 *)
  check_int "TemporalReuse(Y)" 12 (Map.card reuse)

(* ------------------------------------------------------------------ *)
(* Quasi-affine dataflow relations (tiled stamps).                     *)
(* ------------------------------------------------------------------ *)

let test_tiled_theta () =
  let m =
    P.map
      "{ S[i,j,k] -> ST[i mod 8, j mod 8, floor(i/8), floor(j/8), i mod 8 + \
       j mod 8 + k] : 0 <= i < 16 and 0 <= j < 16 and 0 <= k < 4 }"
  in
  check_int "pairs = instances" 1024 (Map.card m);
  check_int "range = pairs (injective)" 1024 (Set.card (Map.range m));
  check_bool "injective" true (Map.is_injective m)

let test_interconnect_abs () =
  let mesh =
    P.map
      "{ PE[i,j] -> PE[x,y] : abs(x - i) <= 1 and abs(y - j) <= 1 and 0 <= i \
       < 4 and 0 <= j < 4 and 0 <= x < 4 and 0 <= y < 4 }"
  in
  (* interior PEs have 9 within-distance-1 cells, edges 6, corners 4 *)
  check_int "mesh incl self" 100 (Map.card mesh)

(* ------------------------------------------------------------------ *)
(* Parser details.                                                     *)
(* ------------------------------------------------------------------ *)

let test_parser_forms () =
  check_int "chain" 5 (Set.card (P.set "{ A[i] : 0 <= i <= 4 }"));
  check_int "gt chain" 4 (Set.card (P.set "{ A[i] : 5 > i > 0 }"));
  check_int "multiplication" 3
    (Set.card (P.set "{ A[i] : 0 <= 2*i and 2*i < 6 }"));
  check_int "fl alias" 4
    (Set.card (P.set "{ A[i] : 0 <= i < 10 and fl(i/4) = 1 }"));
  check_int "true" 6 (Set.card (P.set "{ A[i] : true and 0 <= i < 6 }"));
  check_int "false" 0 (Set.card (P.set "{ A[i] : false }"));
  check_bool "universe map has unbounded card" true
    (match Map.card (P.map "{ S[i] -> A[i] }") with
    | _ -> false
    | exception Isl.Count.Unbounded _ -> true)

let test_parser_errors () =
  let fails s = match P.set s with _ -> false | exception _ -> true in
  check_bool "unknown dim" true (fails "{ A[i] : 0 <= q < 4 }");
  check_bool "garbage" true (fails "{ A[i] 0 <= i }");
  check_bool "unclosed" true (fails "{ A[i : 0 <= i < 4 }");
  (* floor division and modulus take a positive literal, and a literal
     must fit an int; the refusal points at the offending literal *)
  let refused what src =
    match P.set src with
    | _ -> Alcotest.failf "%s accepted" what
    | exception P.Parse_error msg ->
        let at = "at offset" in
        let rec has i =
          i + String.length at <= String.length msg
          && (String.sub msg i (String.length at) = at || has (i + 1))
        in
        check_bool (what ^ " names an offset") true (has 0)
  in
  refused "modulus by 0" "{ A[i] : 0 <= i < 4 and i mod 0 = 1 }";
  refused "% by 0" "{ A[i] : 0 <= i < 4 and i % 0 = 1 }";
  refused "modulus by -3" "{ A[i] : 0 <= i < 4 and i % -3 = 1 }";
  refused "division by 0" "{ A[i] : 0 <= i < 4 and floor(i/0) = 1 }";
  refused "division by -2" "{ A[i] : 0 <= i < 4 and i / -2 = 1 }";
  refused "literal past the int range"
    "{ A[i] : 0 <= i < 99999999999999999999 }";
  refused "literal past the int range (2^63 - 1)"
    "{ A[i] : 0 <= i < 9223372036854775807 }"

let test_to_string_roundtrip () =
  let cases =
    [
      "{ A[i,j] : 0 <= i < 4 and 0 <= j < 3 }";
      "{ A[i] : 0 <= i < 10 and i mod 3 = 1 }";
      "{ A[i,j] : 0 <= i < 4 and 0 <= j < 4 and i + j <= 3 }";
    ]
  in
  List.iter
    (fun src ->
      let s = P.set src in
      let reparsed = P.set (Set.to_string s) in
      check_int ("roundtrip card " ^ src) (Set.card s) (Set.card reparsed))
    cases

(* ------------------------------------------------------------------ *)
(* Aff expressions.                                                    *)
(* ------------------------------------------------------------------ *)

let test_aff_eval () =
  let e = Aff.((Var "i" % 8) + (Var "j" / 4) - Int 2) in
  let env = function "i" -> 13 | "j" -> 9 | _ -> raise Not_found in
  check_int "eval" (5 + 2 - 2) (Aff.eval env e)

let test_aff_interval () =
  let env = function
    | "i" -> (0, 63)
    | "j" -> (0, 7)
    | _ -> raise Not_found
  in
  let iv e = Aff.interval env e in
  Alcotest.(check (pair int int)) "var" (0, 63) (iv (Aff.Var "i"));
  Alcotest.(check (pair int int)) "mod" (0, 7) (iv Aff.(Var "i" % 8));
  Alcotest.(check (pair int int)) "div" (0, 7) (iv Aff.(Var "i" / 8));
  Alcotest.(check (pair int int))
    "skew" (0, 14)
    (iv Aff.((Var "i" % 8) + (Var "j") + Int 7 - Int 7));
  Alcotest.(check (pair int int))
    "neg" (-63, 0)
    (iv (Aff.Neg (Aff.Var "i")));
  Alcotest.(check (pair int int))
    "abs" (0, 63)
    (iv (Aff.Abs (Aff.Sub (Aff.Var "i", Aff.Int 0))));
  Alcotest.(check (pair int int))
    "mul" (0, 126)
    (iv (Aff.Mul (Aff.Int 2, Aff.Var "i")))

let test_aff_nonlinear () =
  let lookup _ = 0 in
  let ctx = Aff.make_ctx 2 in
  check_bool "var*var rejected" true
    (match Aff.lower ctx ~lookup (Aff.Mul (Aff.Var "i", Aff.Var "j")) with
    | _ -> false
    | exception Aff.Nonlinear _ -> true)

(* ------------------------------------------------------------------ *)
(* Properties: counting vs brute force on random sets.                 *)
(* ------------------------------------------------------------------ *)

let bound = 6

(* random basic sets inside the box [0, bound)^2, as constraint lists *)
let gen_constraints =
  QCheck.Gen.(
    list_size (int_range 0 3)
      (map3
         (fun a b k -> (a, b, k))
         (int_range (-2) 2) (int_range (-2) 2) (int_range (-4) 4)))

let arb_constraints = QCheck.make gen_constraints

let set_of_cons cons =
  let space = Isl.Space.make "A" [ "i"; "j" ] in
  let s = Set.box space [ (0, bound - 1); (0, bound - 1) ] in
  List.fold_left
    (fun s (a, b, k) ->
      Set.constrain s
        ~ges:
          [
            Aff.(
              Add
                ( Add (Mul (Int a, Var "i"), Mul (Int b, Var "j")),
                  Int k ));
          ])
    s cons

let brute_count cons =
  let n = ref 0 in
  for i = 0 to bound - 1 do
    for j = 0 to bound - 1 do
      if List.for_all (fun (a, b, k) -> (a * i) + (b * j) + k >= 0) cons then
        incr n
    done
  done;
  !n

let prop_count_vs_brute =
  QCheck.Test.make ~name:"card = brute force" ~count:300 arb_constraints
    (fun cons -> Set.card (set_of_cons cons) = brute_count cons)

let prop_union_card =
  QCheck.Test.make ~name:"card(A u B) + card(A n B) = card A + card B"
    ~count:150
    QCheck.(pair arb_constraints arb_constraints)
    (fun (ca, cb) ->
      let a = set_of_cons ca and b = set_of_cons cb in
      Set.card (Set.union a b) + Set.card (Set.intersect a b)
      = Set.card a + Set.card b)

let prop_subtract_card =
  QCheck.Test.make ~name:"card(A \\ B) = card A - card(A n B)" ~count:150
    QCheck.(pair arb_constraints arb_constraints)
    (fun (ca, cb) ->
      let a = set_of_cons ca and b = set_of_cons cb in
      Set.card (Set.subtract a b) = Set.card a - Set.card (Set.intersect a b))

let prop_reverse_card =
  QCheck.Test.make ~name:"card(reverse m) = card m" ~count:100
    QCheck.(pair (int_range 1 5) (int_range 1 5))
    (fun (n, k) ->
      let m =
        P.map
          (Printf.sprintf "{ S[i] -> A[i mod %d] : 0 <= i < %d }" k (n * k))
      in
      Map.card (Map.reverse m) = Map.card m)

let prop_mem_consistent_with_iter =
  QCheck.Test.make ~name:"iterated points are members" ~count:100
    arb_constraints (fun cons ->
      let s = set_of_cons cons in
      let ok = ref true in
      Set.iter_points (fun p -> if not (Set.mem s p) then ok := false) s;
      !ok)



let test_subset_equal () =
  let a = P.set "{ A[i] : 0 <= i < 5 }" in
  let b = P.set "{ A[i] : 0 <= i < 10 }" in
  check_bool "subset" true (Set.is_subset a b);
  check_bool "not superset" false (Set.is_subset b a);
  check_bool "self equal" true (Set.equal_sets a a);
  (* same set via different constraints *)
  let c = P.set "{ A[i] : 0 <= i and i <= 4 }" in
  check_bool "syntactically different, equal" true (Set.equal_sets a c)

(* ------------------------------------------------------------------ *)
(* Fourier-Motzkin stress: coupled constraints with no box bounds.     *)
(* ------------------------------------------------------------------ *)

let test_fm_shapes () =
  (* diamond |i| + |j| <= 4: 41 points *)
  check_int "diamond" 41
    (Set.card
       (P.set
          "{ A[i,j] : i + j <= 4 and i - j <= 4 and -i + j <= 4 and -i - j \
           <= 4 }"));
  (* parallelogram: 0 <= i+j < 4, 0 <= i-j < 4; i,j integral forces
     i+j and i-j to share parity: 8 lattice points *)
  check_int "parallelogram" 8
    (Set.card
       (P.set
          "{ A[i,j] : 0 <= i + j and i + j < 4 and 0 <= i - j and i - j < 4 \
           }"));
  (* 3D simplex i + j + k <= 4, all >= 0: C(7,3) = 35 *)
  check_int "simplex 3D" 35
    (Set.card
       (P.set
          "{ A[i,j,k] : 0 <= i and 0 <= j and 0 <= k and i + j + k <= 4 }"));
  (* thin coupled band: exactly one of {i, i+1} is even, so one j per i *)
  check_int "band" 10
    (Set.card
       (P.set
          "{ A[i,j] : 0 <= i < 10 and i <= 2*j and 2*j <= i + 1 }"))

let test_fm_empty_detection () =
  check_int "infeasible coupled" 0
    (Set.card
       (P.set "{ A[i,j] : i + j >= 5 and i + j <= 3 and 0 <= i and 0 <= j }"))

(* random quasi-affine expressions: print -> parse -> same evaluation *)
let gen_expr =
  QCheck.Gen.(
    sized_size (int_range 0 4) (fix (fun self n ->
        if n = 0 then
          oneof [ map (fun v -> Aff.Var (if v then "i" else "j")) bool;
                  map (fun c -> Aff.Int c) (int_range (-9) 9) ]
        else
          frequency
            [ (3, map2 (fun a b -> Aff.Add (a, b)) (self (n / 2)) (self (n / 2)));
              (2, map2 (fun a b -> Aff.Sub (a, b)) (self (n / 2)) (self (n / 2)));
              (1, map (fun a -> Aff.Neg a) (self (n - 1)));
              (1, map2 (fun a c -> Aff.Mul (Aff.Int c, a)) (self (n - 1)) (int_range (-4) 4));
              (1, map2 (fun a d -> Aff.Fdiv (a, d)) (self (n - 1)) (int_range 1 5));
              (1, map2 (fun a d -> Aff.Mod (a, d)) (self (n - 1)) (int_range 1 5)) ])))

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"expr print/parse/eval roundtrip" ~count:200
    (QCheck.make gen_expr) (fun e ->
      let printed = Aff.to_string e in
      match P.expr ~dims:[ "i"; "j" ] printed with
      | e' ->
          List.for_all
            (fun (i, j) ->
              let env = function
                | "i" -> i
                | "j" -> j
                | _ -> raise Not_found
              in
              Aff.eval env e = Aff.eval env e')
            [ (0, 0); (3, 5); (-2, 7); (11, -4) ]
      | exception P.Parse_error _ -> false)

(* interval analysis is sound: the value at sampled points lies within *)
let prop_interval_sound =
  QCheck.Test.make ~name:"interval analysis sound" ~count:200
    (QCheck.make gen_expr) (fun e ->
      let env_iv = function
        | "i" -> (0, 7)
        | "j" -> (-3, 4)
        | _ -> raise Not_found
      in
      let lo, hi = Aff.interval env_iv e in
      List.for_all
        (fun (i, j) ->
          let env = function "i" -> i | "j" -> j | _ -> raise Not_found in
          let v = Aff.eval env e in
          lo <= v && v <= hi)
        [ (0, -3); (7, 4); (3, 0); (5, -1); (0, 4); (7, -3) ])

let extra_suites =
  [
    ( "fourier-motzkin",
      [
        Alcotest.test_case "coupled shapes" `Quick test_fm_shapes;
        Alcotest.test_case "infeasible" `Quick test_fm_empty_detection;
      ] );
    ( "fuzz",
      List.map QCheck_alcotest.to_alcotest
        [ prop_expr_roundtrip; prop_interval_sound ] );
  ]

let () =
  Alcotest.run "isl"
    ([
      ( "sets",
        [
          Alcotest.test_case "box card" `Quick test_box_card;
          Alcotest.test_case "triangle" `Quick test_triangle;
          Alcotest.test_case "mod/div" `Quick test_mod_div;
          Alcotest.test_case "union/subtract" `Quick test_union_subtract;
          Alcotest.test_case "!= expansion" `Quick test_ne_expansion;
          Alcotest.test_case "mem/sample" `Quick test_mem_sample;
          Alcotest.test_case "iter_points" `Quick test_iter_points;
          Alcotest.test_case "projection" `Quick test_projection;
          Alcotest.test_case "dim_bounds" `Quick test_dim_bounds;
        ] );
      ( "maps",
        [
          Alcotest.test_case "basics" `Quick test_map_basics;
          Alcotest.test_case "eval/image" `Quick test_map_eval_image;
          Alcotest.test_case "apply_range" `Quick test_apply_range;
          Alcotest.test_case "intersect dom/ran" `Quick
            test_intersect_domain_range;
          Alcotest.test_case "subtract/union" `Quick test_map_subtract_union;
          Alcotest.test_case "mem_fn" `Quick test_mem_fn;
          Alcotest.test_case "subset/equal" `Quick test_subset_equal;
        ] );
      ( "paper examples",
        [
          Alcotest.test_case "Fig3 TotalVolume" `Quick test_fig3_total_volume;
          Alcotest.test_case "Fig3 ReuseVolume" `Quick test_fig3_reuse_volume;
          Alcotest.test_case "Fig3 Y stationary" `Quick
            test_fig3_y_stationary;
          Alcotest.test_case "tiled theta" `Quick test_tiled_theta;
          Alcotest.test_case "mesh via abs" `Quick test_interconnect_abs;
        ] );
      ( "parser",
        [
          Alcotest.test_case "forms" `Quick test_parser_forms;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "print/parse roundtrip" `Quick
            test_to_string_roundtrip;
        ] );
      ( "aff",
        [
          Alcotest.test_case "eval" `Quick test_aff_eval;
          Alcotest.test_case "interval" `Quick test_aff_interval;
          Alcotest.test_case "nonlinear rejected" `Quick test_aff_nonlinear;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_count_vs_brute;
            prop_union_card;
            prop_subtract_card;
            prop_reverse_card;
            prop_mem_consistent_with_iter;
          ] );
    ]
    @ extra_suites)

(* Parametric counting: [Count.count_bset_param] must return a
   quasi-polynomial that evaluates, at every in-range parameter
   assignment, to exactly what the concrete engine counts on the set
   with the parameters pinned.  Shapes cover boxes, triangles,
   floor-valued counts, unions (overlapping and disjoint), the
   resisting cases that must return [None], and a randomized
   differential sweep. *)

module Isl = Tenet_isl
module Bset = Isl.Bset
module Count = Isl.Count
module Qpoly = Isl.Qpoly

let rand_int st lo hi = lo + Random.State.int st (hi - lo + 1)

(* Constraint helpers over a fixed variable count. *)
let ge nvars terms k =
  let a = Array.make nvars 0 in
  List.iter (fun (v, c) -> a.(v) <- a.(v) + c) terms;
  { Bset.a; k; eq = false }

let bset nvis cons = Bset.add_cons (Bset.universe nvis) cons

(* Pin the leading [n] dims of [b] to [vals] and count concretely. *)
let concrete_at b vals =
  let fixed = ref b in
  Array.iteri (fun p v -> fixed := Bset.fix !fixed ~dim:p v) vals;
  Count.count_bset !fixed

let check_template ?assume ~n_params b qp ~at =
  List.iter
    (fun vals ->
      let vals = Array.of_list vals in
      let expect = concrete_at b vals in
      let got = Qpoly.eval (fun p -> vals.(p)) qp in
      Alcotest.(check int)
        (Printf.sprintf "instantiation at (%s)"
           (String.concat ","
              (Array.to_list (Array.map string_of_int vals))))
        expect got)
    at;
  ignore assume;
  ignore n_params

(* --- fixed shapes --------------------------------------------------- *)

let test_square () =
  (* (p, x, y) with 0 <= x,y <= p-1: count = p^2 *)
  let b =
    bset 3
      [
        ge 3 [ (1, 1) ] 0;
        ge 3 [ (0, 1); (1, -1) ] (-1);
        ge 3 [ (2, 1) ] 0;
        ge 3 [ (0, 1); (2, -1) ] (-1);
      ]
  in
  match Count.count_bset_param ~n_params:1 b with
  | None -> Alcotest.fail "square template resisted"
  | Some qp ->
      check_template ~n_params:1 b qp
        ~at:[ [ 1 ]; [ 2 ]; [ 7 ]; [ 64 ]; [ 4096 ] ]

let test_triangle () =
  (* (p, x, y) with 0 <= x <= y <= p-1: count = p(p+1)/2 *)
  let b =
    bset 3
      [
        ge 3 [ (1, 1) ] 0;
        ge 3 [ (2, 1); (1, -1) ] 0;
        ge 3 [ (0, 1); (2, -1) ] (-1);
      ]
  in
  match Count.count_bset_param ~n_params:1 b with
  | None -> Alcotest.fail "triangle template resisted"
  | Some qp ->
      check_template ~n_params:1 b qp ~at:[ [ 1 ]; [ 3 ]; [ 10 ]; [ 100 ] ];
      Alcotest.(check int) "closed form at 8" 36 (Qpoly.eval (fun _ -> 8) qp)

let test_floor_count () =
  (* (p, e) with e >= 0 and 4e <= p-1: count = floor((p-1)/4) + 1, a
     genuine quasi-polynomial (floor atom in p). *)
  let b = bset 2 [ ge 2 [ (1, 1) ] 0; ge 2 [ (0, 1); (1, -4) ] (-1) ] in
  match Count.count_bset_param ~n_params:1 b with
  | None -> Alcotest.fail "floor template resisted"
  | Some qp ->
      check_template ~n_params:1 b qp
        ~at:[ [ 1 ]; [ 2 ]; [ 4 ]; [ 5 ]; [ 9 ]; [ 63 ]; [ 64 ]; [ 65 ] ]

let test_two_params () =
  (* (n, m, x, y) with 0 <= x <= n-1, 0 <= y <= m-1: count = n*m *)
  let b =
    bset 4
      [
        ge 4 [ (2, 1) ] 0;
        ge 4 [ (0, 1); (2, -1) ] (-1);
        ge 4 [ (3, 1) ] 0;
        ge 4 [ (1, 1); (3, -1) ] (-1);
      ]
  in
  match Count.count_bset_param ~n_params:2 b with
  | None -> Alcotest.fail "two-param template resisted"
  | Some qp ->
      check_template ~n_params:2 b qp
        ~at:[ [ 1; 1 ]; [ 3; 5 ]; [ 17; 2 ]; [ 64; 64 ] ]

let test_div_existential () =
  (* (p, x) with 0 <= x <= p-1 and an existential e = floor(x/4): the
     div witness is unique, so the count stays p. *)
  let nvars = 3 in
  let num = Array.make nvars 0 in
  num.(1) <- 1;
  let b =
    {
      Bset.nvis = 2;
      defs = [| Some { Bset.num; dk = 0; den = 4 } |];
      cons = [ ge nvars [ (1, 1) ] 0; ge nvars [ (0, 1); (1, -1) ] (-1) ];
    }
  in
  match Count.count_bset_param ~n_params:1 b with
  | None -> Alcotest.fail "div-existential template resisted"
  | Some qp ->
      check_template ~n_params:1 b qp ~at:[ [ 1 ]; [ 5 ]; [ 16 ]; [ 33 ] ]

let test_empty () =
  (* x <= -1 and x >= 0: empty for every p — the template is 0. *)
  let b =
    bset 2
      [ ge 2 [ (1, 1) ] 0; ge 2 [ (1, -1) ] (-1); ge 2 [ (0, 1); (1, -1) ] 0 ]
  in
  match Count.count_bset_param ~n_params:1 b with
  | None -> Alcotest.fail "empty set should template to zero"
  | Some qp ->
      Alcotest.(check (option int)) "zero template" (Some 0) (Qpoly.is_const qp)

let test_union_overlap () =
  (* Two overlapping strips of the (p, x, y) square; inclusion–exclusion
     must count the overlap once. A = x in [0,5], B = x in [3,9], both
     with 0 <= y <= p-1, over x <= p-1 as well — keep every disjunct
     p-bounded so the union is parametric. *)
  let strip lo hi =
    bset 3
      [
        ge 3 [ (1, 1) ] (-lo);
        ge 3 [ (1, -1) ] hi;
        ge 3 [ (2, 1) ] 0;
        ge 3 [ (0, 1); (2, -1) ] (-1);
      ]
  in
  let bs = [ strip 0 5; strip 3 9 ] in
  match Count.count_union_param ~n_params:1 bs with
  | None -> Alcotest.fail "overlapping union resisted"
  | Some qp ->
      List.iter
        (fun p ->
          let expect =
            (* 10 distinct x values, p y values each *)
            10 * p
          in
          Alcotest.(check int)
            (Printf.sprintf "union at p=%d" p)
            expect
            (Qpoly.eval (fun _ -> p) qp))
        [ 1; 4; 100 ]

let test_union_disjoint () =
  (* Disjoint strips: the intersection term is empty, which must
     template to zero rather than force a fallback. *)
  let strip lo hi =
    bset 2
      [
        ge 2 [ (1, 1) ] (-lo);
        ge 2 [ (1, -1) ] hi;
        ge 2 [ (0, 1) ] 0 (* p mentioned so arity checks stay honest *);
      ]
  in
  let bs = [ strip 0 3; strip 10 13 ] in
  match Count.count_union_param ~n_params:1 bs with
  | None -> Alcotest.fail "disjoint union resisted"
  | Some qp ->
      Alcotest.(check (option int)) "constant 8" (Some 8) (Qpoly.is_const qp)

let test_resists () =
  (* min(p, 10) is not a quasi-polynomial in p: the planner must refuse
     (two incomparable upper bounds on x). *)
  let b =
    bset 2
      [
        ge 2 [ (1, 1) ] 0;
        ge 2 [ (0, 1); (1, -1) ] (-1);
        ge 2 [ (1, -1) ] 9;
      ]
  in
  (match Count.count_bset_param ~n_params:1 b with
  | None -> ()
  | Some qp ->
      (* accepted only if genuinely exact everywhere *)
      check_template ~n_params:1 b qp ~at:[ [ 1 ]; [ 9 ]; [ 10 ]; [ 11 ]; [ 50 ] ]);
  (* a 5-disjunct union exceeds the inclusion–exclusion bound *)
  let one = bset 1 [ ge 1 [ (0, 1) ] 0 ] in
  Alcotest.(check bool)
    "5-disjunct union falls back" true
    (Count.count_union_param ~n_params:0 [ one; one; one; one; one ] = None)

let test_assume_range () =
  (* The template is only certified inside [assume]; a range starting
     at 5 must still instantiate exactly there. *)
  let b =
    bset 2 [ ge 2 [ (1, 1) ] (-3); ge 2 [ (0, 1); (1, -1) ] 2 ]
    (* 3 <= x <= p+2: count = p *)
  in
  match Count.count_bset_param ~n_params:1 ~assume:[| (5, 200) |] b with
  | None -> Alcotest.fail "assume-range template resisted"
  | Some qp ->
      List.iter
        (fun p ->
          Alcotest.(check int)
            (Printf.sprintf "at p=%d" p)
            p
            (Qpoly.eval (fun _ -> p) qp))
        [ 5; 17; 200 ]

let test_sparse_parameter_image () =
  (* x = p - 2 with 0 <= x <= 1: the count is 1 at p = 2 and p = 3 and
     0 elsewhere in the box.  Eliminating x leaves constraints on p
     alone, which the box does not imply, so a template must not claim
     the count of 1 for the whole box. *)
  let b =
    bset 2
      [
        { Bset.a = [| -1; 1 |]; k = 2; eq = true };
        ge 2 [ (1, 1) ] 0;
        ge 2 [ (1, -1) ] 1;
      ]
  in
  match Count.count_bset_param ~n_params:1 ~assume:[| (0, 5) |] b with
  | None -> ()
  | Some qp ->
      check_template ~n_params:1 b qp ~at:(List.init 6 (fun p -> [ p ]))

(* --- randomized differential sweep ---------------------------------- *)

let test_random_boxes () =
  let st = Random.State.make [| 0x7e4e7 |] in
  let hits = ref 0 in
  for _ = 1 to 200 do
    let ndims = rand_int st 1 3 in
    let nvis = 1 + ndims in
    let cons = ref [] in
    for i = 1 to ndims do
      let lo = rand_int st (-2) 2 in
      cons := ge nvis [ (i, 1) ] (-lo) :: !cons;
      (* upper bound: constant, parametric, or coupled to an earlier dim *)
      (match rand_int st 0 2 with
      | 0 -> cons := ge nvis [ (i, -1) ] (lo + rand_int st 0 6) :: !cons
      | 1 ->
          (* x_i <= p + c with c >= lo so width >= 1 at p = 1 *)
          cons :=
            ge nvis [ (0, 1); (i, -1) ] (lo + rand_int st 0 3) :: !cons
      | _ ->
          if i > 1 then
            (* x_i <= x_{i-1} + c, plus a parametric safety net so the
               dim stays p-bounded *)
            cons :=
              ge nvis [ (i - 1, 1); (i, -1) ] (rand_int st 0 4)
              :: ge nvis [ (0, 1); (i, -1) ] (lo + rand_int st 0 3)
              :: !cons
          else
            cons :=
              ge nvis [ (0, 1); (i, -1) ] (lo + rand_int st 0 3) :: !cons);
      ()
    done;
    let b = bset nvis !cons in
    match Count.count_bset_param ~n_params:1 ~assume:[| (1, 512) |] b with
    | None -> ()
    | Some qp ->
        incr hits;
        List.iter
          (fun p ->
            let expect = concrete_at b [| p |] in
            let got = Qpoly.eval (fun _ -> p) qp in
            if expect <> got then
              Alcotest.failf "random box mismatch at p=%d: concrete %d, qp %d"
                p expect got)
          [ 1; 2; rand_int st 3 40; rand_int st 41 512 ]
  done;
  (* the generator is box-heavy: most shapes must hit the fast path *)
  if !hits < 100 then
    Alcotest.failf "only %d/200 random sets produced a template" !hits

let () =
  Alcotest.run "count_param"
    [
      ( "templates",
        [
          Alcotest.test_case "square" `Quick test_square;
          Alcotest.test_case "triangle" `Quick test_triangle;
          Alcotest.test_case "floor count" `Quick test_floor_count;
          Alcotest.test_case "two params" `Quick test_two_params;
          Alcotest.test_case "div existential" `Quick test_div_existential;
          Alcotest.test_case "empty set" `Quick test_empty;
          Alcotest.test_case "union overlap" `Quick test_union_overlap;
          Alcotest.test_case "union disjoint" `Quick test_union_disjoint;
          Alcotest.test_case "resisting shapes" `Quick test_resists;
          Alcotest.test_case "assume range" `Quick test_assume_range;
          Alcotest.test_case "sparse parameter image" `Quick
            test_sparse_parameter_image;
          Alcotest.test_case "random boxes" `Quick test_random_boxes;
        ] );
    ]

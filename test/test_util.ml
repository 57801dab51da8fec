(* Unit and property tests for tenet.util. *)

module IM = Tenet_util.Int_math
module Ivec = Tenet_util.Ivec
module Uf = Tenet_util.Union_find
module Memo = Tenet_util.Memo.Make (Int)

let check_int = Alcotest.(check int)

let test_gcd () =
  check_int "gcd 12 18" 6 (IM.gcd 12 18);
  check_int "gcd 0 0" 0 (IM.gcd 0 0);
  check_int "gcd -12 18" 6 (IM.gcd (-12) 18);
  check_int "gcd 7 0" 7 (IM.gcd 7 0);
  check_int "gcd 1 1" 1 (IM.gcd 1 1)

let test_lcm () =
  check_int "lcm 4 6" 12 (IM.lcm 4 6);
  check_int "lcm 0 5" 0 (IM.lcm 0 5);
  check_int "lcm -4 6" 12 (IM.lcm (-4) 6)

let test_fdiv_fmod () =
  check_int "fdiv 7 2" 3 (IM.fdiv 7 2);
  check_int "fdiv -7 2" (-4) (IM.fdiv (-7) 2);
  check_int "fdiv 7 -2" (-4) (IM.fdiv 7 (-2));
  check_int "fdiv -7 -2" 3 (IM.fdiv (-7) (-2));
  check_int "fmod -7 2" 1 (IM.fmod (-7) 2);
  check_int "fmod 7 2" 1 (IM.fmod 7 2);
  check_int "cdiv 7 2" 4 (IM.cdiv 7 2);
  check_int "cdiv -7 2" (-3) (IM.cdiv (-7) 2);
  check_int "cdiv 8 2" 4 (IM.cdiv 8 2)

let test_pow_factorial_binomial () =
  check_int "2^10" 1024 (IM.pow 2 10);
  check_int "3^0" 1 (IM.pow 3 0);
  check_int "2^9" 512 (IM.pow 2 9);
  check_int "5!" 120 (IM.factorial 5);
  check_int "0!" 1 (IM.factorial 0);
  check_int "C(3,2)" 3 (IM.binomial 3 2);
  check_int "C(6,3)" 20 (IM.binomial 6 3);
  check_int "C(5,0)" 1 (IM.binomial 5 0);
  check_int "C(4,7)" 0 (IM.binomial 4 7)

let test_clamp_sum () =
  check_int "clamp low" 0 (IM.clamp ~lo:0 ~hi:5 (-3));
  check_int "clamp high" 5 (IM.clamp ~lo:0 ~hi:5 9);
  check_int "clamp mid" 3 (IM.clamp ~lo:0 ~hi:5 3);
  check_int "sum" 10 (IM.sum [ 1; 2; 3; 4 ])

let test_ivec () =
  check_int "dot" 32 (Ivec.dot [| 1; 2; 3 |] [| 4; 5; 6 |]);
  check_int "content" 4 (Ivec.content [| 8; -12; 4 |]);
  check_int "content zero" 0 (Ivec.content [| 0; 0 |]);
  Alcotest.(check bool) "is_zero" true (Ivec.is_zero [| 0; 0; 0 |]);
  Alcotest.(check bool)
    "equal" true
    (Ivec.equal (Ivec.add [| 1; 2 |] [| 3; 4 |]) [| 4; 6 |]);
  Alcotest.(check bool)
    "sub" true
    (Ivec.equal (Ivec.sub [| 1; 2 |] [| 3; 4 |]) [| -2; -2 |]);
  Alcotest.(check bool)
    "scale" true
    (Ivec.equal (Ivec.scale 3 [| 1; -2 |]) [| 3; -6 |]);
  check_int "lex lt" (-1)
    (compare (Ivec.compare_lex [| 1; 2 |] [| 1; 3 |]) 0);
  check_int "lex eq" 0 (Ivec.compare_lex [| 1; 2 |] [| 1; 2 |])

let test_union_find () =
  let uf = Uf.create 6 in
  Uf.union uf 0 1;
  Uf.union uf 2 3;
  Uf.union uf 1 2;
  Alcotest.(check bool) "joined" true (Uf.find uf 0 = Uf.find uf 3);
  Alcotest.(check bool) "separate" true (Uf.find uf 4 <> Uf.find uf 0);
  let groups = Uf.groups uf in
  check_int "n groups" 3 (Array.length groups)

(* properties *)
let prop_fdiv_fmod =
  QCheck.Test.make ~name:"a = b*fdiv(a,b) + fmod(a,b), 0 <= fmod < |b|"
    ~count:500
    QCheck.(pair (int_range (-1000) 1000) (int_range 1 50))
    (fun (a, b) ->
      let q = IM.fdiv a b and r = IM.fmod a b in
      a = (b * q) + r && r >= 0 && r < b)

let prop_gcd_divides =
  QCheck.Test.make ~name:"gcd divides both" ~count:500
    QCheck.(pair (int_range (-500) 500) (int_range (-500) 500))
    (fun (a, b) ->
      let g = IM.gcd a b in
      if a = 0 && b = 0 then g = 0 else a mod g = 0 && b mod g = 0)

let prop_cdiv_neg =
  QCheck.Test.make ~name:"cdiv a b = -fdiv (-a) b" ~count:500
    QCheck.(pair (int_range (-1000) 1000) (int_range 1 50))
    (fun (a, b) -> IM.cdiv a b = -IM.fdiv (-a) b)

(* Four domains racing [add] on the same keys each get the value that
   arrived first: one physical value per key, the one [find] returns. *)
let test_memo_race () =
  let t = Memo.create ~max_entries:1024 () in
  let keys = 1000 in
  let ready = Atomic.make 0 in
  let racer d () =
    Atomic.incr ready;
    while Atomic.get ready < 4 do
      Domain.cpu_relax ()
    done;
    Array.init keys (fun k -> Memo.add t k (Printf.sprintf "%d from %d" k d))
  in
  let got = List.map Domain.join (List.init 4 (fun d -> Domain.spawn (racer d))) in
  check_int "one entry per key" keys (Memo.length t);
  for k = 0 to keys - 1 do
    let resident = Option.get (Memo.find t k) in
    List.iteri
      (fun d a ->
        if a.(k) != resident then
          Alcotest.failf "key %d: domain %d got %S, the table holds %S" k d
            a.(k) resident)
      got
  done

let test_memo_bound () =
  let t = Memo.create ~max_entries:3 () in
  List.iter (fun k -> ignore (Memo.add t k (k * 10))) [ 1; 2; 3 ];
  check_int "full" 3 (Memo.length t);
  check_int "a present key keeps its value" 20 (Memo.add t 2 99);
  check_int "and does not flush" 3 (Memo.length t);
  check_int "the next key is inserted" 40 (Memo.add t 4 40);
  check_int "after flushing the rest" 1 (Memo.length t);
  Alcotest.(check (option int)) "flushed" None (Memo.find t 1);
  Alcotest.(check (option int)) "kept" (Some 40) (Memo.find t 4)

let test_memo_clear () =
  let t = Memo.create ~max_entries:8 () in
  check_int "starts empty" 0 (Memo.length t);
  ignore (Memo.add t 1 "one");
  ignore (Memo.add t 2 "two");
  check_int "two entries" 2 (Memo.length t);
  Memo.clear t;
  check_int "cleared" 0 (Memo.length t);
  Alcotest.(check (option string)) "gone" None (Memo.find t 1);
  Alcotest.(check string) "usable after clear" "uno" (Memo.add t 1 "uno");
  Alcotest.check_raises "max_entries < 1"
    (Invalid_argument "Memo.create: max_entries < 1") (fun () ->
      ignore (Memo.create ~max_entries:0 ()))

let () =
  Alcotest.run "util"
    [
      ( "int_math",
        [
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "lcm" `Quick test_lcm;
          Alcotest.test_case "fdiv/fmod/cdiv" `Quick test_fdiv_fmod;
          Alcotest.test_case "pow/factorial/binomial" `Quick
            test_pow_factorial_binomial;
          Alcotest.test_case "clamp/sum" `Quick test_clamp_sum;
        ] );
      ( "ivec",
        [ Alcotest.test_case "vector ops" `Quick test_ivec ] );
      ( "union_find",
        [ Alcotest.test_case "components" `Quick test_union_find ] );
      ( "memo",
        [
          Alcotest.test_case "racing adds agree" `Quick test_memo_race;
          Alcotest.test_case "full table flushes" `Quick test_memo_bound;
          Alcotest.test_case "clear and length" `Quick test_memo_clear;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_fdiv_fmod; prop_gcd_divides; prop_cdiv_neg ] );
    ]

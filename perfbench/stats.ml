(* Order statistics for per-op latencies and the steadiness record. *)

let sorted (xs : float array) : float array =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

(* Linear interpolation between closest ranks (Hyndman-Fan type 7, the
   numpy default): q = 0 is the minimum and q = 1 the maximum. *)
let quantile (xs : float array) (q : float) : float =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: empty sample";
  if q < 0. || q > 1. then invalid_arg "Stats.quantile: q outside [0, 1]";
  let s = sorted xs in
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median (xs : float array) : float = quantile xs 0.5

(* Samples strictly above the [q] quantile: the evidence behind a
   percentile (the benchmark wants at least ten). *)
let beyond (xs : float array) (q : float) : int =
  let t = quantile xs q in
  Array.fold_left (fun n x -> if x > t then n + 1 else n) 0 xs

let dot a b =
  assert (Array.length a = Array.length b);
  let acc = ref 0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc + (a.(i) * b.(i))
  done;
  !acc

let add a b = Array.init (Array.length a) (fun i -> a.(i) + b.(i))
let sub a b = Array.init (Array.length a) (fun i -> a.(i) - b.(i))
let scale k a = Array.map (fun x -> k * x) a
let neg a = Array.map (fun x -> -x) a
let content a = Array.fold_left (fun g x -> Int_math.gcd g x) 0 a
let is_zero a = Array.for_all (fun x -> x = 0) a

let compare_lex a b =
  assert (Array.length a = Array.length b);
  let rec go i =
    if i = Array.length a then 0
    else
      let c = compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let equal a b = Array.length a = Array.length b && compare_lex a b = 0

(* Quasi-polynomials over integer variables, with symbolic summation —
   the "Barvinok-lite" core behind closed-form counting (see Count).

   A quasi-polynomial here is a sum of rational-coefficient monomials
   whose bases are either plain variables or floor atoms
   [floor((c.x + k) / d)].  The fragment is exactly what TENET's sets
   produce: box bounds, simplex/trapezoid couplings, and the mod/fdiv
   forms introduced by dataflow stamps, tiling and skew.

   Two design points make the engine exact:

   - Floor atoms are kept *canonical*: the denominator is > 1, every
     numerator coefficient and the constant lie in [0, den), and the
     gcd of numerator and denominator is 1.  Canonicity is what lets
     syntactically different bounds cancel — e.g. the pair of
     inequalities materialized from a div definition
     [e = floor(x/d)] yields the width
     [floor(x/d) - ceil((x-d+1)/d) + 1], and because
     [ceil((x-d+1)/d)] canonicalizes to [floor(x/d)] the width
     collapses to the constant 1, so div-defined existentials vanish
     from the symbolic count entirely.
   - Summation of a polynomial-in-v integrand between bounds that may
     themselves be floor atoms uses Faulhaber antidifferences
     [F_d(n) = sum_{t=0}^{n} t^d]: [sum_{v=A}^{B} v^d = F_d(B) -
     F_d(A-1)], a polynomial identity that telescopes for every
     integer pair with [B >= A - 1] (callers certify that side
     condition; see Count).  Summation is refused ([None]) when the
     integrand mentions [v] inside a floor atom — that is the truly
     periodic case needing residue splits, and Count falls back to
     enumerating that single level. *)

module IM = Tenet_util.Int_math

(* ------------------------------------------------------------------ *)
(* Exact rationals over machine integers.                              *)
(* ------------------------------------------------------------------ *)

module Q = struct
  type t = { n : int; d : int } (* d > 0, gcd(|n|, d) = 1 *)

  let make n d =
    assert (d <> 0);
    let s = if d < 0 then -1 else 1 in
    let n = s * n and d = s * d in
    let g = IM.gcd n d in
    if g = 0 then { n = 0; d = 1 } else { n = n / g; d = d / g }

  let of_int n = { n; d = 1 }
  let zero = of_int 0
  let one = of_int 1
  let is_zero q = q.n = 0
  let add a b = make ((a.n * b.d) + (b.n * a.d)) (a.d * b.d)
  let mul a b = make (a.n * b.n) (a.d * b.d)
  let neg a = { a with n = -a.n }
  let sub a b = add a (neg b)
  let sign a = compare a.n 0
  let compare a b = compare (a.n * b.d) (b.n * a.d)
  let to_int_opt q = if q.d = 1 then Some q.n else None

  let to_string q =
    if q.d = 1 then string_of_int q.n else Printf.sprintf "%d/%d" q.n q.d
end

(* ------------------------------------------------------------------ *)
(* Integer affine forms.                                               *)
(* ------------------------------------------------------------------ *)

type lin = { lt : (int * int) list; lk : int }
(* [lt] sorted by variable index, coefficients nonzero *)

let lin (terms : (int * int) list) (k : int) : lin =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (v, c) ->
      match Hashtbl.find_opt tbl v with
      | Some r -> r := !r + c
      | None -> Hashtbl.add tbl v (ref c))
    terms;
  let lt =
    Hashtbl.fold (fun v r acc -> if !r <> 0 then (v, !r) :: acc else acc) tbl []
  in
  { lt = List.sort (fun (a, _) (b, _) -> compare a b) lt; lk = k }

let lin_const k = { lt = []; lk = k }

let lin_scale c (l : lin) : lin =
  if c = 0 then lin_const 0
  else { lt = List.map (fun (v, k) -> (v, c * k)) l.lt; lk = c * l.lk }

let lin_add (a : lin) (b : lin) : lin = lin (a.lt @ b.lt) (a.lk + b.lk)
let lin_mentions v (l : lin) = List.exists (fun (w, _) -> w = v) l.lt

let lin_subst v ~(by : lin) (l : lin) : lin =
  match List.assoc_opt v l.lt with
  | None -> l
  | Some c ->
      let rest = { l with lt = List.filter (fun (w, _) -> w <> v) l.lt } in
      lin_add rest (lin_scale c by)

let lin_eval (env : int -> int) (l : lin) : int =
  List.fold_left (fun acc (v, c) -> acc + (c * env v)) l.lk l.lt

let lin_interval (env : int -> int * int) (l : lin) : int * int =
  List.fold_left
    (fun (lo, hi) (v, c) ->
      let vlo, vhi = env v in
      if c >= 0 then (lo + (c * vlo), hi + (c * vhi))
      else (lo + (c * vhi), hi + (c * vlo)))
    (l.lk, l.lk) l.lt

(* ------------------------------------------------------------------ *)
(* Monomials and quasi-polynomials.                                    *)
(* ------------------------------------------------------------------ *)

type base = Var of int | Floor of { fnum : lin; fden : int }
(* [Floor] is canonical: fden >= 2, fnum has at least one variable term,
   all fnum coefficients and the constant in [0, fden), gcd 1. *)

type mono = (base * int) list (* sorted by base, exponents >= 1 *)
type t = (mono * Q.t) list (* sorted by mono, coefficients nonzero *)

let zero : t = []
let const q : t = if Q.is_zero q then [] else [ ([], q) ]
let of_int n = const (Q.of_int n)
let one = of_int 1

let normalize (terms : (mono * Q.t) list) : t =
  let sorted =
    List.sort (fun (ma, _) (mb, _) -> compare ma mb) terms
  in
  let rec combine = function
    | [] -> []
    | (m, c) :: rest ->
        let rec take acc = function
          | (m', c') :: tl when m' = m -> take (Q.add acc c') tl
          | tl -> (acc, tl)
        in
        let c, tl = take c rest in
        if Q.is_zero c then combine tl else (m, c) :: combine tl
  in
  combine sorted

let of_lin (l : lin) : t =
  normalize
    (([], Q.of_int l.lk)
    :: List.map (fun (v, c) -> ([ (Var v, 1) ], Q.of_int c)) l.lt)

let var v : t = [ ([ (Var v, 1) ], Q.one) ]
let add (a : t) (b : t) : t = normalize (a @ b)
let scale q (t : t) : t = if Q.is_zero q then [] else List.map (fun (m, c) -> (m, Q.mul q c)) t
let neg t = scale (Q.of_int (-1)) t
let sub a b = add a (neg b)

let mul_mono (a : mono) (b : mono) : mono =
  let rec go a b =
    match (a, b) with
    | [], m | m, [] -> m
    | (ba, ea) :: ta, (bb, eb) :: tb ->
        let c = compare ba bb in
        if c = 0 then (ba, ea + eb) :: go ta tb
        else if c < 0 then (ba, ea) :: go ta b
        else (bb, eb) :: go a tb
  in
  go a b

let mul (a : t) (b : t) : t =
  normalize
    (List.concat_map
       (fun (ma, ca) ->
         List.map (fun (mb, cb) -> (mul_mono ma mb, Q.mul ca cb)) b)
       a)

let rec pow (t : t) e : t =
  assert (e >= 0);
  if e = 0 then one else if e = 1 then t else mul t (pow t (e - 1))

(* floor((l) / den), canonicalized.  Integer multiples of [den] are
   pulled out of the floor term by term ([floor((c*x + r)/d) =
   (c/d |> fdiv)*x + floor(((c mod d)*x + r)/d)] is valid per variable),
   then the residual atom is gcd-reduced. *)
let floor_lin (l : lin) (den : int) : t =
  assert (den > 0);
  if den = 1 then of_lin l
  else begin
    let outer = ref [] and inner = ref [] in
    List.iter
      (fun (v, c) ->
        let q = IM.fdiv c den in
        let r = c - (q * den) in
        if q <> 0 then outer := (v, q) :: !outer;
        if r <> 0 then inner := (v, r) :: !inner)
      l.lt;
    let qk = IM.fdiv l.lk den in
    let rk = l.lk - (qk * den) in
    let t_outer = of_lin { lt = List.rev !outer; lk = qk } in
    match List.rev !inner with
    | [] -> t_outer (* floor(rk / den) = 0 because rk is in [0, den) *)
    | inner_lt ->
        let g =
          List.fold_left (fun g (_, c) -> IM.gcd g c) (IM.gcd rk den) inner_lt
        in
        let fnum =
          { lt = List.map (fun (v, c) -> (v, c / g)) inner_lt; lk = rk / g }
        in
        let den' = den / g in
        if den' = 1 then add t_outer (of_lin fnum)
        else add t_outer [ ([ (Floor { fnum; fden = den' }, 1) ], Q.one) ]
  end

let ceil_lin (l : lin) (den : int) : t =
  (* ceil(l / den) = floor((l + den - 1) / den) *)
  floor_lin { l with lk = l.lk + den - 1 } den

let is_const (t : t) : int option =
  match t with
  | [] -> Some 0
  | [ ([], c) ] -> Q.to_int_opt c
  | _ -> None

let mono_degree_in v (m : mono) =
  List.fold_left
    (fun acc (b, e) -> match b with Var w when w = v -> acc + e | _ -> acc)
    0 m

let degree_in v (t : t) =
  List.fold_left (fun acc (m, _) -> max acc (mono_degree_in v m)) 0 t

let mentions_floor_of v (t : t) =
  List.exists
    (fun (m, _) ->
      List.exists
        (function
          | Floor { fnum; _ }, _ -> lin_mentions v fnum
          | Var _, _ -> false)
        m)
    t

let mentions v (t : t) =
  mentions_floor_of v t || List.exists (fun (m, _) -> mono_degree_in v m > 0) t

let subst v ~(by : lin) (t : t) : t =
  List.fold_left
    (fun acc (m, c) ->
      let term =
        List.fold_left
          (fun acc (b, e) ->
            let bt =
              match b with
              | Var w when w = v -> of_lin by
              | Var _ -> [ ([ (b, 1) ], Q.one) ]
              | Floor { fnum; fden } ->
                  if lin_mentions v fnum then
                    floor_lin (lin_subst v ~by fnum) fden
                  else [ ([ (b, 1) ], Q.one) ]
            in
            mul acc (pow bt e))
          (const c) m
      in
      add acc term)
    zero t

(* ------------------------------------------------------------------ *)
(* Faulhaber antidifferences.                                          *)
(* ------------------------------------------------------------------ *)

let max_degree = 12

(* [faulhaber.(d).(k)] is the coefficient of n^k in
   F_d(n) = sum_{t=0}^{n} t^d, from the telescoping recurrence
   (n+1)^{d+1} = sum_{k=0}^{d} C(d+1,k) F_k(n).  Precomputed at module
   init so concurrent counting domains never mutate shared state. *)
let faulhaber : Q.t array array =
  let tbl = Array.make (max_degree + 1) [||] in
  for d = 0 to max_degree do
    let acc = Array.init (d + 2) (fun k -> Q.of_int (IM.binomial (d + 1) k)) in
    for k = 0 to d - 1 do
      let fk = tbl.(k) in
      let c = Q.of_int (IM.binomial (d + 1) k) in
      for i = 0 to k + 1 do
        acc.(i) <- Q.sub acc.(i) (Q.mul c fk.(i))
      done
    done;
    for i = 0 to d + 1 do
      acc.(i) <- Q.mul acc.(i) (Q.make 1 (d + 1))
    done;
    tbl.(d) <- acc
  done;
  tbl

let eval_poly_at (coeffs : Q.t array) (x : t) : t =
  let acc = ref zero in
  for i = Array.length coeffs - 1 downto 0 do
    acc := add (mul !acc x) (const coeffs.(i))
  done;
  !acc

(* sum_{v=lb}^{ub} body, provided [body] is polynomial in [v] (no floor
   atom mentions it), the bounds do not mention [v], and the degree is
   within the Faulhaber table.  The result telescopes exactly for every
   integer assignment with ub >= lb - 1; the caller certifies that. *)
let sum_var ~v ~(lb : t) ~(ub : t) (body : t) : t option =
  if mentions_floor_of v body || mentions v lb || mentions v ub then None
  else begin
    let d = degree_in v body in
    if d > max_degree then None
    else begin
      let coeffs = Array.make (d + 1) zero in
      List.iter
        (fun (m, c) ->
          let k = mono_degree_in v m in
          let m' = List.filter (fun (b, _) -> b <> Var v) m in
          coeffs.(k) <- add coeffs.(k) [ (m', c) ])
        body;
      let lbm1 = sub lb one in
      let acc = ref zero in
      for k = 0 to d do
        if coeffs.(k) <> [] then begin
          let f = faulhaber.(k) in
          let s = sub (eval_poly_at f ub) (eval_poly_at f lbm1) in
          acc := add !acc (mul coeffs.(k) s)
        end
      done;
      Some !acc
    end
  end

(* ------------------------------------------------------------------ *)
(* Evaluation.                                                         *)
(* ------------------------------------------------------------------ *)

let eval (env : int -> int) (t : t) : int =
  let q =
    List.fold_left
      (fun acc (m, c) ->
        let mv =
          List.fold_left
            (fun acc (b, e) ->
              let bv =
                match b with
                | Var v -> env v
                | Floor { fnum; fden } -> IM.fdiv (lin_eval env fnum) fden
              in
              acc * IM.pow bv e)
            1 m
        in
        Q.add acc (Q.mul c (Q.of_int mv)))
      Q.zero t
  in
  match Q.to_int_opt q with
  | Some n -> n
  | None -> invalid_arg "Qpoly.eval: non-integral value"

(* Conservative interval of [t] over a box of variable intervals. *)
let imul (alo, ahi) (blo, bhi) =
  let p1 = alo * blo and p2 = alo * bhi and p3 = ahi * blo and p4 = ahi * bhi in
  (min (min p1 p2) (min p3 p4), max (max p1 p2) (max p3 p4))

let ipow (lo, hi) e =
  if e = 0 then (1, 1)
  else if e land 1 = 1 then (IM.pow lo e, IM.pow hi e)
  else begin
    let a = IM.pow lo e and b = IM.pow hi e in
    let mx = max a b in
    if lo <= 0 && hi >= 0 then (0, mx) else (min a b, mx)
  end

let interval (env : int -> int * int) (t : t) : Q.t * Q.t =
  List.fold_left
    (fun (alo, ahi) (m, c) ->
      let mlo, mhi =
        List.fold_left
          (fun acc (b, e) ->
            let biv =
              match b with
              | Var v -> env v
              | Floor { fnum; fden } ->
                  let nlo, nhi = lin_interval env fnum in
                  (IM.fdiv nlo fden, IM.fdiv nhi fden)
            in
            imul acc (ipow biv e))
          (1, 1) m
      in
      let tlo, thi =
        if Q.sign c >= 0 then
          (Q.mul c (Q.of_int mlo), Q.mul c (Q.of_int mhi))
        else (Q.mul c (Q.of_int mhi), Q.mul c (Q.of_int mlo))
      in
      (Q.add alo tlo, Q.add ahi thi))
    (Q.zero, Q.zero) t

let min_ge (env : int -> int * int) (t : t) (k : int) : bool =
  let lo, _ = interval env t in
  Q.compare lo (Q.of_int k) >= 0

(* Provably nonnegative difference: [a - b >= k] everywhere on the box,
   by constant folding first and interval arithmetic second. *)
let prove_ge (env : int -> int * int) (a : t) (k : int) : bool =
  match is_const a with Some c -> c >= k | None -> min_ge env a k

let to_string_with (name : int -> string) (t : t) : string =
  let base_str = function
    | Var v -> name v
    | Floor { fnum; fden } ->
        let terms =
          String.concat " + "
            (List.map (fun (v, c) -> Printf.sprintf "%d*%s" c (name v)) fnum.lt)
        in
        Printf.sprintf "floor((%s + %d)/%d)" terms fnum.lk fden
  in
  let mono_str m =
    String.concat "*"
      (List.map
         (fun (b, e) ->
           if e = 1 then base_str b else Printf.sprintf "%s^%d" (base_str b) e)
         m)
  in
  match t with
  | [] -> "0"
  | _ ->
      String.concat " + "
        (List.map
           (fun (m, c) ->
             if m = [] then Q.to_string c
             else if c = Q.one then mono_str m
             else Printf.sprintf "%s*%s" (Q.to_string c) (mono_str m))
           t)

(* Quasi-affine expressions over named dimensions, and their lowering into
   the linear-constraint representation of {!Bset}.

   [Fdiv] and [Mod] take a positive integer literal divisor, matching the
   quasi-affine transformations of the paper ([fl(i/8)], [i%8]). *)

type t =
  | Var of string
  | Int of int
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t (* at least one side must lower to a constant *)
  | Fdiv of t * int
  | Mod of t * int
  | Abs of t
      (* [Abs] is only valid in comparison atoms of the constraint language
         (e.g. [abs(i - j) <= 1]); it is expanded there and never reaches
         [lower]. *)

exception Nonlinear of string

let var s = Var s
let int n = Int n
let ( + ) a b = Add (a, b)
let ( - ) a b = Sub (a, b)
let ( * ) a b = Mul (a, b)
let ( / ) a d = Fdiv (a, d)
let ( % ) a d = Mod (a, d)

let rec free_vars = function
  | Var s -> [ s ]
  | Int _ -> []
  | Neg a -> free_vars a
  | Add (a, b) | Sub (a, b) | Mul (a, b) -> free_vars a @ free_vars b
  | Fdiv (a, _) | Mod (a, _) | Abs a -> free_vars a

let rec rename f = function
  | Var s -> Var (f s)
  | Int n -> Int n
  | Neg a -> Neg (rename f a)
  | Add (a, b) -> Add (rename f a, rename f b)
  | Sub (a, b) -> Sub (rename f a, rename f b)
  | Mul (a, b) -> Mul (rename f a, rename f b)
  | Fdiv (a, d) -> Fdiv (rename f a, d)
  | Mod (a, d) -> Mod (rename f a, d)
  | Abs a -> Abs (rename f a)

let rec to_string = function
  | Var s -> s
  | Int n -> string_of_int n
  | Neg a -> "-(" ^ to_string a ^ ")"
  | Add (a, b) -> to_string a ^ " + " ^ to_string b
  | Sub (a, (Add _ | Sub _ | Neg _ as b)) ->
      to_string a ^ " - (" ^ to_string b ^ ")"
  | Sub (a, b) -> to_string a ^ " - " ^ to_string b
  | Mul (a, b) -> paren a ^ "*" ^ paren b
  | Fdiv (a, d) -> "floor((" ^ to_string a ^ ")/" ^ string_of_int d ^ ")"
  | Mod (a, d) -> "(" ^ to_string a ^ ") mod " ^ string_of_int d
  | Abs a -> "abs(" ^ to_string a ^ ")"

and paren e =
  match e with
  | Var _ | Int _ -> to_string e
  | _ -> "(" ^ to_string e ^ ")"

(* Evaluate with an environment; raises [Not_found] on unbound vars. *)
let rec eval env = function
  | Var s -> env s
  | Int n -> n
  | Neg a -> -eval env a
  | Add (a, b) -> Stdlib.( + ) (eval env a) (eval env b)
  | Sub (a, b) -> Stdlib.( - ) (eval env a) (eval env b)
  | Mul (a, b) -> Stdlib.( * ) (eval env a) (eval env b)
  | Fdiv (a, d) -> Tenet_util.Int_math.fdiv (eval env a) d
  | Mod (a, d) -> Tenet_util.Int_math.fmod (eval env a) d
  | Abs a -> abs (eval env a)

(* Staged evaluator: name resolution and shape dispatch happen once, at
   compile time, so the hot path is closure calls over an int array — no
   string lookups, no AST walk.  Used by the concrete engine, which
   evaluates the same handful of expressions millions of times. *)
let compile_eval ~(lookup : string -> int) (e : t) : int array -> int =
  let rec go = function
    | Var s ->
        let i = lookup s in
        fun v -> v.(i)
    | Int n -> fun _ -> n
    | Neg a ->
        let f = go a in
        fun v -> -f v
    | Add (a, b) ->
        let fa = go a and fb = go b in
        fun v -> Stdlib.( + ) (fa v) (fb v)
    | Sub (a, b) ->
        let fa = go a and fb = go b in
        fun v -> Stdlib.( - ) (fa v) (fb v)
    | Mul (a, b) ->
        let fa = go a and fb = go b in
        fun v -> Stdlib.( * ) (fa v) (fb v)
    | Fdiv (a, d) ->
        let f = go a in
        fun v -> Tenet_util.Int_math.fdiv (f v) d
    | Mod (a, d) ->
        let f = go a in
        fun v -> Tenet_util.Int_math.fmod (f v) d
    | Abs a ->
        let f = go a in
        fun v -> abs (f v)
  in
  go e

(* ------------------------------------------------------------------ *)
(* Lowering context: accumulates floor-division definitions as extra    *)
(* existential dimensions appended after [nbase] visible dimensions.    *)
(* ------------------------------------------------------------------ *)

type lin = { terms : (int * int) list; const : int } (* (var index, coeff) *)

type ctx = {
  nbase : int;
  mutable divs : (lin * int) list; (* reversed; each is (numerator, den) *)
  mutable ndivs : int;
}

let make_ctx nbase = { nbase; divs = []; ndivs = 0 }

let lin_const c = { terms = []; const = c }
let lin_var v = { terms = [ (v, 1) ]; const = 0 }

let lin_add a b =
  let tbl = Hashtbl.create 8 in
  let addt (v, c) =
    let prev = try Hashtbl.find tbl v with Not_found -> 0 in
    Hashtbl.replace tbl v (Stdlib.( + ) prev c)
  in
  List.iter addt a.terms;
  List.iter addt b.terms;
  let terms =
    Hashtbl.fold (fun v c acc -> if c = 0 then acc else (v, c) :: acc) tbl []
  in
  let terms = List.sort compare terms in
  { terms; const = Stdlib.( + ) a.const b.const }

let lin_scale k l =
  if k = 0 then lin_const 0
  else
    {
      terms = List.map (fun (v, c) -> (v, Stdlib.( * ) k c)) l.terms;
      const = Stdlib.( * ) k l.const;
    }

let lin_is_const l = l.terms = []

(* Lower an expression to a linear form, appending div dimensions to the
   context as needed.  [lookup] maps dimension names to indices in
   [0, nbase). *)
let rec lower ctx ~lookup expr : lin =
  match expr with
  | Var s -> lin_var (lookup s)
  | Int n -> lin_const n
  | Neg a -> lin_scale (-1) (lower ctx ~lookup a)
  | Add (a, b) -> lin_add (lower ctx ~lookup a) (lower ctx ~lookup b)
  | Sub (a, b) ->
      lin_add (lower ctx ~lookup a) (lin_scale (-1) (lower ctx ~lookup b))
  | Mul (a, b) -> begin
      let la = lower ctx ~lookup a and lb = lower ctx ~lookup b in
      if lin_is_const la then lin_scale la.const lb
      else if lin_is_const lb then lin_scale lb.const la
      else raise (Nonlinear (to_string expr))
    end
  | Fdiv (a, d) ->
      if d <= 0 then raise (Nonlinear "floor division by non-positive literal");
      let la = lower ctx ~lookup a in
      let v = Stdlib.( + ) ctx.nbase ctx.ndivs in
      ctx.divs <- (la, d) :: ctx.divs;
      ctx.ndivs <- Stdlib.( + ) ctx.ndivs 1;
      lin_var v
  | Mod (a, d) ->
      if d <= 0 then raise (Nonlinear "modulus by non-positive literal");
      (* a mod d = a - d * floor(a/d), sharing the lowering of [a] *)
      let la = lower ctx ~lookup a in
      let v = Stdlib.( + ) ctx.nbase ctx.ndivs in
      ctx.divs <- (la, d) :: ctx.divs;
      ctx.ndivs <- Stdlib.( + ) ctx.ndivs 1;
      lin_add la (lin_scale (-d) (lin_var v))
  | Abs _ -> raise (Nonlinear "abs() outside a comparison atom")

let check_affine ~dims e =
  let index v = Option.get (List.find_index (String.equal v) dims) in
  ignore (lower (make_ctx (List.length dims)) ~lookup:index e)

(* Convert the accumulated context + constraints into a {!Bset}. *)
let lin_to_array ~nvars l =
  let a = Array.make nvars 0 in
  List.iter (fun (v, c) -> a.(v) <- Stdlib.( + ) a.(v) c) l.terms;
  a

let ctx_defs ctx ~nvars : Bset.def option array =
  let divs = List.rev ctx.divs in
  Array.of_list
    (List.map
       (fun ((num : lin), den) ->
         Some
           { Bset.num = lin_to_array ~nvars num; dk = num.const; den })
       divs)

(* Build a basic set over [nbase] visible dims from lowered equality and
   inequality linear forms ([eqs] meaning l = 0, [ges] meaning l >= 0). *)
let to_bset ctx ~eqs ~ges : Bset.t =
  let nvars = Stdlib.( + ) ctx.nbase ctx.ndivs in
  let defs = ctx_defs ctx ~nvars in
  let cons =
    List.map (fun l -> Bset.con_eq (lin_to_array ~nvars l) l.const) eqs
    @ List.map (fun l -> Bset.con_ge (lin_to_array ~nvars l) l.const) ges
  in
  { Bset.nvis = ctx.nbase; defs; cons }

(* Conservative-but-tight interval of an expression given per-variable
   inclusive intervals.  Exact for affine terms; [Mod]/[Fdiv] use the
   standard monotone rules. *)
let rec interval (env : string -> int * int) (e : t) : int * int =
  match e with
  | Var s -> env s
  | Int n -> (n, n)
  | Neg a ->
      let lo, hi = interval env a in
      (-hi, -lo)
  | Add (a, b) ->
      let la, ha = interval env a and lb, hb = interval env b in
      (Stdlib.( + ) la lb, Stdlib.( + ) ha hb)
  | Sub (a, b) ->
      let la, ha = interval env a and lb, hb = interval env b in
      (Stdlib.( - ) la hb, Stdlib.( - ) ha lb)
  | Mul (a, b) ->
      let la, ha = interval env a and lb, hb = interval env b in
      let products =
        [
          Stdlib.( * ) la lb;
          Stdlib.( * ) la hb;
          Stdlib.( * ) ha lb;
          Stdlib.( * ) ha hb;
        ]
      in
      (List.fold_left min max_int products, List.fold_left max min_int products)
  | Fdiv (a, d) ->
      let lo, hi = interval env a in
      (Tenet_util.Int_math.fdiv lo d, Tenet_util.Int_math.fdiv hi d)
  | Mod (a, d) ->
      let lo, hi = interval env a in
      if Stdlib.( - ) hi lo >= Stdlib.( - ) d 1 then (0, Stdlib.( - ) d 1)
      else begin
        let flo = Tenet_util.Int_math.fmod lo d
        and fhi = Tenet_util.Int_math.fmod hi d in
        if flo <= fhi then (flo, fhi) else (0, Stdlib.( - ) d 1)
      end
  | Abs a ->
      let lo, hi = interval env a in
      if lo >= 0 then (lo, hi)
      else if hi <= 0 then (-hi, -lo)
      else (0, max (-lo) hi)

(* Integer relations: finite unions of basic relations between two named
   spaces.  A basic relation is stored as a {!Bset} over the concatenated
   (domain, range) dimensions. *)

type t = { dom : Space.t; ran : Space.t; disjuncts : Bset.t list }

let dom t = t.dom
let ran t = t.ran
let n_in t = Space.dim t.dom
let n_out t = Space.dim t.ran
let disjuncts t = t.disjuncts
let of_bsets dom ran disjuncts = { dom; ran; disjuncts }

let universe dom ran =
  { dom; ran; disjuncts = [ Bset.universe (Space.dim dom + Space.dim ran) ] }

let check_same a b =
  if n_in a <> n_in b || n_out a <> n_out b then
    invalid_arg "Map: space mismatch"

let union a b =
  check_same a b;
  { a with disjuncts = a.disjuncts @ b.disjuncts }

let union_all = function
  | [] -> invalid_arg "Map.union_all: empty list"
  | m :: ms -> List.fold_left union m ms

let intersect a b =
  check_same a b;
  let ds =
    List.concat_map
      (fun da -> List.map (fun db -> Bset.meet da db) b.disjuncts)
      a.disjuncts
  in
  { a with disjuncts = ds }

let subtract a b =
  check_same a b;
  let sub_one pieces bb = List.concat_map (fun p -> Bset.subtract p bb) pieces in
  let ds = List.fold_left sub_one a.disjuncts b.disjuncts in
  { a with disjuncts = ds }

let reverse t =
  {
    dom = t.ran;
    ran = t.dom;
    disjuncts =
      List.map (Bset.swap_blocks ~n1:(n_in t) ~n2:(n_out t)) t.disjuncts;
  }

(* [apply_range a b] composes [a : X -> Y] with [b : Y -> Z] giving
   [X -> Z] (isl's [isl_union_map_apply_range]). *)
let apply_range a b =
  if n_out a <> n_in b then invalid_arg "Map.apply_range: space mismatch";
  let nx = n_in a and ny = n_out a and nz = n_out b in
  let ds =
    List.concat_map
      (fun da ->
        List.map (fun db -> Bset.compose ~nx ~ny ~nz da db) b.disjuncts)
      a.disjuncts
  in
  { dom = a.dom; ran = b.ran; disjuncts = ds }

(* Restrict the domain (resp. range) to a set. *)
let intersect_domain t (s : Set.t) =
  if Set.dim s <> n_in t then invalid_arg "Map.intersect_domain: arity";
  let ds =
    List.concat_map
      (fun d ->
        List.map
          (fun sb -> Bset.meet d (Bset.product sb (Bset.universe (n_out t))))
          (Set.disjuncts s))
      t.disjuncts
  in
  { t with disjuncts = ds }

let intersect_range t (s : Set.t) =
  if Set.dim s <> n_out t then invalid_arg "Map.intersect_range: arity";
  let ds =
    List.concat_map
      (fun d ->
        List.map
          (fun sb -> Bset.meet d (Bset.product (Bset.universe (n_in t)) sb))
          (Set.disjuncts s))
      t.disjuncts
  in
  { t with disjuncts = ds }

let domain t : Set.t =
  let keep = Array.init (n_in t + n_out t) (fun i -> i < n_in t) in
  Set.of_bsets t.dom
    (List.map (Bset.project ~keep) t.disjuncts)

let range t : Set.t =
  let keep = Array.init (n_in t + n_out t) (fun i -> i >= n_in t) in
  Set.of_bsets t.ran
    (List.map (Bset.project ~keep) t.disjuncts)

(* View the relation as a set of flattened (in, out) pairs. *)
let wrap t : Set.t =
  Set.of_bsets (Space.concat t.dom t.ran) t.disjuncts

let card t = Count.count_union t.disjuncts
let is_empty t = Count.is_empty_union t.disjuncts

let mem t ~src ~dst =
  Count.mem_union t.disjuncts (Array.append src dst)

let iter_pairs f t =
  let ni = n_in t in
  Count.iter_union t.disjuncts (fun p ->
      f (Array.sub p 0 ni) (Array.sub p ni (Array.length p - ni)))

(* The image of one point; for functional relations this has one element. *)
let image t (src : int array) : int array list =
  if Array.length src <> n_in t then invalid_arg "Map.image: arity";
  let fixed =
    List.map
      (fun b ->
        let b = ref b in
        Array.iteri (fun i v -> b := Bset.fix !b ~dim:i v) src;
        Bset.project
          ~keep:(Array.init (n_in t + n_out t) (fun i -> i >= n_in t))
          !b)
      t.disjuncts
  in
  let out = ref [] in
  Count.iter_union fixed (fun p -> out := Array.copy p :: !out);
  List.rev !out

(* Evaluate a functional relation at a point. *)
let eval t src =
  match image t src with
  | [ p ] -> Some p
  | [] -> None
  | _ :: _ :: _ -> invalid_arg "Map.eval: relation is not single-valued here"

(* A relation is single-valued iff each domain point has exactly one image,
   i.e. the pair count equals the domain count. *)
let is_single_valued t = Set.card (domain t) = card t

let is_injective t = Set.card (range t) = card t

let fix_input ~dim v t =
  { t with disjuncts = List.map (fun b -> Bset.fix b ~dim v) t.disjuncts }

(* Build a map from quasi-affine output expressions of the input dims:
   { dom -> ran : ran_i = expr_i(dom) } *)
let of_exprs dom ran (exprs : Aff.t list) =
  let ni = Space.dim dom and no = Space.dim ran in
  if List.length exprs <> no then invalid_arg "Map.of_exprs: arity";
  let ctx = Aff.make_ctx (ni + no) in
  let lookup name = Space.index dom name in
  let eqs =
    List.mapi
      (fun i e ->
        (* expr_i(dom) - out_i = 0 *)
        let l = Aff.lower ctx ~lookup e in
        Aff.lin_add l { Aff.terms = [ (ni + i, -1) ]; const = 0 })
      exprs
  in
  { dom; ran; disjuncts = [ Aff.to_bset ctx ~eqs ~ges:[] ] }

(* Add constraints written over the concatenated (dom, ran) dim names.
   Domain names take precedence on collision; range dims can be given
   distinct names by the caller. *)
let constrain ?(eqs = []) ?(ges = []) t =
  let names = t.dom.Space.dims @ t.ran.Space.dims in
  let lookup name =
    let rec go i = function
      | [] -> raise Not_found
      | d :: _ when String.equal d name -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 names
  in
  let n = n_in t + n_out t in
  let ctx = Aff.make_ctx n in
  let leqs = List.map (Aff.lower ctx ~lookup) eqs in
  let lges = List.map (Aff.lower ctx ~lookup) ges in
  let extra = Aff.to_bset ctx ~eqs:leqs ~ges:lges in
  { t with disjuncts = List.map (fun b -> Bset.meet b extra) t.disjuncts }

(* Hand-written parser for the ISL-like notation used throughout TENET:

     set:  { S[i, j] : 0 <= i < 4 and 0 <= j < 3 }
     map:  { S[i, j, k] -> PE[i mod 8, j mod 8] : 0 <= i < 64 }
     map:  { PE[i, j] -> PE[x, y] : (x = i and y = j + 1) or
                                    (x = i + 1 and y = j) }

   Expressions support [+ - *], [mod] / [%], [floor(e/c)] / [fl(e/c)] /
   [e/c] (integer literal divisor), and [abs(e)] in comparison atoms with
   the absolute value on the small side (e.g. [abs(i - j) <= 1]).
   Comparison chains ([0 <= i < n]) and [or] (union / DNF) are supported;
   [!=] expands to a disjunction. *)

type token =
  | INT of int
  | IDENT of string
  | LBRACE
  | RBRACE
  | LBRACK
  | RBRACK
  | LPAREN
  | RPAREN
  | COMMA
  | SEMI
  | COLON
  | ARROW
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | LE
  | LT
  | GE
  | GT
  | EQ
  | NE
  | KAND
  | KOR
  | KMOD
  | KFLOOR
  | KABS
  | KTRUE
  | KFALSE
  | EOF

exception Parse_error of string

(* "at offset N near \"...\"": a window of the source around the offending
   position, so errors point at the bad sub-expression instead of echoing
   the whole string. *)
let context (src : string) (pos : int) : string =
  let n = String.length src in
  let pos = min (max pos 0) n in
  let lo = max 0 (pos - 12) and hi = min n (pos + 12) in
  Printf.sprintf "at offset %d near \"%s%s%s\"" pos
    (if lo > 0 then "…" else "")
    (String.sub src lo (hi - lo))
    (if hi < n then "…" else "")

let error_at src pos msg =
  raise (Parse_error (Printf.sprintf "%s %s" msg (context src pos)))

(* Tokens are paired with their start offset in the source. *)
let tokenize (s : string) : (token * int) list =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let start = ref 0 in
  let emit t = toks := (t, !start) :: !toks in
  let is_id_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  let is_id c = is_id_start c || (c >= '0' && c <= '9') || c = '\'' in
  while !i < n do
    let c = s.[!i] in
    start := !i;
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c >= '0' && c <= '9' then begin
      let j = ref !i in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
        incr j
      done;
      (match int_of_string_opt (String.sub s !i (!j - !i)) with
      | Some v -> emit (INT v)
      | None -> error_at s !start "integer literal past the int range");
      i := !j
    end
    else if is_id_start c then begin
      let j = ref !i in
      while !j < n && is_id s.[!j] do
        incr j
      done;
      let word = String.sub s !i (!j - !i) in
      i := !j;
      emit
        (match word with
        | "and" -> KAND
        | "or" -> KOR
        | "mod" -> KMOD
        | "floor" | "fl" -> KFLOOR
        | "abs" -> KABS
        | "true" -> KTRUE
        | "false" -> KFALSE
        | w -> IDENT w)
    end
    else begin
      let two = if !i + 1 < n then String.sub s !i 2 else "" in
      match two with
      | "->" ->
          emit ARROW;
          i := !i + 2
      | "<=" ->
          emit LE;
          i := !i + 2
      | ">=" ->
          emit GE;
          i := !i + 2
      | "!=" ->
          emit NE;
          i := !i + 2
      | _ -> (
          incr i;
          match c with
          | '{' -> emit LBRACE
          | '}' -> emit RBRACE
          | '[' -> emit LBRACK
          | ']' -> emit RBRACK
          | '(' -> emit LPAREN
          | ')' -> emit RPAREN
          | ',' -> emit COMMA
          | ';' -> emit SEMI
          | ':' -> emit COLON
          | '+' -> emit PLUS
          | '-' -> emit MINUS
          | '*' -> emit STAR
          | '/' -> emit SLASH
          | '%' -> emit PERCENT
          | '<' -> emit LT
          | '>' -> emit GT
          | '=' -> emit EQ
          | c ->
              error_at s !start
                (Printf.sprintf "unexpected character '%c'" c))
    end
  done;
  List.rev ((EOF, n) :: !toks)

(* ------------------------------------------------------------------ *)
(* Recursive descent.                                                  *)
(* ------------------------------------------------------------------ *)

type state = { mutable toks : (token * int) list; src : string }

let peek st = match st.toks with [] -> EOF | (t, _) :: _ -> t

(* Offset of the next token (end of input once the stream is drained). *)
let pos st =
  match st.toks with [] -> String.length st.src | (_, p) :: _ -> p

let next st =
  match st.toks with
  | [] -> EOF
  | (t, _) :: rest ->
      st.toks <- rest;
      t

let err st msg = error_at st.src (pos st) msg

let expect st t what =
  let p = pos st in
  let got = next st in
  if got <> t then error_at st.src p ("expected " ^ what)

let accept st t = if peek st = t then (ignore (next st); true) else false

(* --- expressions (over Aff.t, allowing tuple-qualified names) --- *)

(* Output-tuple dims may collide with input dims (e.g. PE -> PE maps);
   we qualify names with the tuple position during parsing of maps.  The
   caller supplies a [qualify : string -> string]. *)

let rec parse_expr st ~qualify : Aff.t =
  let lhs = parse_term st ~qualify in
  parse_expr_rest st ~qualify lhs

and parse_expr_rest st ~qualify lhs =
  match peek st with
  | PLUS ->
      ignore (next st);
      let rhs = parse_term st ~qualify in
      parse_expr_rest st ~qualify (Aff.Add (lhs, rhs))
  | MINUS ->
      ignore (next st);
      let rhs = parse_term st ~qualify in
      parse_expr_rest st ~qualify (Aff.Sub (lhs, rhs))
  | _ -> lhs

and parse_term st ~qualify =
  let lhs = parse_factor st ~qualify in
  parse_term_rest st ~qualify lhs

and parse_term_rest st ~qualify lhs =
  match peek st with
  | STAR ->
      ignore (next st);
      let rhs = parse_factor st ~qualify in
      parse_term_rest st ~qualify (Aff.Mul (lhs, rhs))
  | SLASH ->
      ignore (next st);
      let d = parse_divisor st "division" in
      parse_term_rest st ~qualify (Aff.Fdiv (lhs, d))
  | PERCENT | KMOD ->
      ignore (next st);
      let d = parse_divisor st "modulus" in
      parse_term_rest st ~qualify (Aff.Mod (lhs, d))
  | _ -> lhs

(* The literal right of a [/], [%] or [mod]: floor division and modulus
   are defined for positive divisors only. *)
and parse_divisor st what =
  let p = pos st in
  let d =
    match next st with
    | INT n -> n
    | MINUS -> (
        let q = pos st in
        match next st with
        | INT n -> -n
        | _ -> error_at st.src q "expected integer literal")
    | _ -> error_at st.src p "expected integer literal"
  in
  if d <= 0 then
    error_at st.src p
      (Printf.sprintf "%s by %d: expected a positive integer literal" what d);
  d

and parse_factor st ~qualify =
  let p = pos st in
  match next st with
  | INT n -> Aff.Int n
  | IDENT v -> Aff.Var (qualify v)
  | MINUS -> Aff.Neg (parse_factor st ~qualify)
  | LPAREN ->
      let e = parse_expr st ~qualify in
      expect st RPAREN ")";
      e
  | KFLOOR ->
      expect st LPAREN "( after floor";
      let e = parse_expr st ~qualify in
      (* Accept both floor(e / d) (slash consumed by term parsing) and
         floor(e, d); the common case is that parse_expr already folded
         the division. *)
      expect st RPAREN ") after floor";
      (match e with
      | Aff.Fdiv _ -> e
      | _ -> error_at st.src p "floor(...) must contain a division")
  | KABS ->
      expect st LPAREN "( after abs";
      let e = parse_expr st ~qualify in
      expect st RPAREN ") after abs";
      Aff.Abs e
  | _ -> error_at st.src p "expected expression"

(* --- constraint formulas --- *)

type formula =
  | Atom of (Aff.t * [ `Le | `Lt | `Eq | `Ne ] * Aff.t)
  | And of formula list
  | Or of formula list
  | True
  | False

let rec parse_formula st ~qualify = parse_or st ~qualify

and parse_or st ~qualify =
  let lhs = parse_and st ~qualify in
  if accept st KOR then
    match parse_or st ~qualify with
    | Or fs -> Or (lhs :: fs)
    | f -> Or [ lhs; f ]
  else lhs

and parse_and st ~qualify =
  let lhs = parse_atom st ~qualify in
  if accept st KAND then
    match parse_and st ~qualify with
    | And fs -> And (lhs :: fs)
    | f -> And [ lhs; f ]
  else lhs

and parse_atom st ~qualify =
  match peek st with
  | KTRUE ->
      ignore (next st);
      True
  | KFALSE ->
      ignore (next st);
      False
  | LPAREN ->
      (* Could be a parenthesized formula or a parenthesized expression
         starting a chain; try formula first by lookahead on the matching
         content.  Simplest robust approach: save tokens and backtrack. *)
      let saved = st.toks in
      ignore (next st);
      (try
         let f = parse_formula st ~qualify in
         expect st RPAREN ")";
         (* If the next token is a comparison, the parenthesized thing was
            actually an expression; fall back. *)
         match peek st with
         | LE | LT | GE | GT | EQ | NE -> raise (Parse_error "chain")
         | _ -> f
       with Parse_error _ ->
         st.toks <- saved;
         parse_chain st ~qualify)
  | _ -> parse_chain st ~qualify

and parse_chain st ~qualify =
  let first = parse_expr st ~qualify in
  let rec go lhs acc =
    match peek st with
    | LE | LT | GE | GT | EQ | NE ->
        let op = next st in
        let rhs = parse_expr st ~qualify in
        let atom =
          match op with
          | LE -> Atom (lhs, `Le, rhs)
          | LT -> Atom (lhs, `Lt, rhs)
          | GE -> Atom (rhs, `Le, lhs)
          | GT -> Atom (rhs, `Lt, lhs)
          | EQ -> Atom (lhs, `Eq, rhs)
          | NE -> Atom (lhs, `Ne, rhs)
          | _ -> assert false
        in
        go rhs (atom :: acc)
    | _ -> acc
  in
  match go first [] with
  | [] -> err st "expected comparison"
  | [ a ] -> a
  | atoms -> And atoms

(* Expand an atom into primitive constraints: a list of (expr >= 0) and
   (expr = 0) facts, or a disjunction thereof for [!=] / [abs >=]. *)
type prim = Ge of Aff.t | Eq0 of Aff.t

let rec atom_prims (lhs, op, rhs) : prim list list =
  (* returns DNF: list of conjunctions *)
  match (lhs, op, rhs) with
  | Aff.Abs a, `Le, r -> [ [ Ge (Aff.Sub (r, a)); Ge (Aff.Add (r, a)) ] ]
  | Aff.Abs a, `Lt, r ->
      [
        [
          Ge (Aff.Sub (Aff.Sub (r, a), Aff.Int 1));
          Ge (Aff.Sub (Aff.Add (r, a), Aff.Int 1));
        ];
      ]
  | _, `Le, _ -> [ [ Ge (Aff.Sub (rhs, lhs)) ] ]
  | _, `Lt, _ -> [ [ Ge (Aff.Sub (Aff.Sub (rhs, lhs), Aff.Int 1)) ] ]
  | _, `Eq, _ -> [ [ Eq0 (Aff.Sub (lhs, rhs)) ] ]
  | _, `Ne, _ ->
      atom_prims (lhs, `Lt, rhs) @ atom_prims (rhs, `Lt, lhs)

let rec formula_dnf (f : formula) : prim list list =
  match f with
  | True -> [ [] ]
  | False -> []
  | Atom a -> atom_prims a
  | And fs ->
      List.fold_left
        (fun acc f ->
          let d = formula_dnf f in
          List.concat_map (fun conj -> List.map (fun c -> conj @ c) d) acc)
        [ [] ] fs
  | Or fs -> List.concat_map formula_dnf fs

(* --- tuples and top-level pieces --- *)

let parse_tuple st : string * string list =
  let name = match peek st with
    | IDENT n ->
        ignore (next st);
        n
    | _ -> ""
  in
  expect st LBRACK "[";
  let dims = ref [] in
  if peek st <> RBRACK then begin
    let rec go () =
      let p = pos st in
      (match next st with
      | IDENT d -> dims := d :: !dims
      | _ -> error_at st.src p "expected dimension name");
      if accept st COMMA then go ()
    in
    go ()
  end;
  expect st RBRACK "]";
  (name, List.rev !dims)

let build_bsets ~nvis ~lookup (f : formula) : Bset.t list =
  let dnf = formula_dnf f in
  List.map
    (fun conj ->
      let ctx = Aff.make_ctx nvis in
      let eqs = ref [] and ges = ref [] in
      List.iter
        (fun p ->
          match p with
          | Ge e -> ges := Aff.lower ctx ~lookup e :: !ges
          | Eq0 e -> eqs := Aff.lower ctx ~lookup e :: !eqs)
        conj;
      Aff.to_bset ctx ~eqs:!eqs ~ges:!ges)
    dnf

let lookup_in dims name =
  let rec go i = function
    | [] -> raise (Parse_error ("unknown dimension " ^ name))
    | d :: _ when String.equal d name -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 dims

let parse_set_pieces st =
  expect st LBRACE "{";
  let pieces = ref [] in
  let rec go () =
    let tuple, dims = parse_tuple st in
    let f = if accept st COLON then parse_formula st ~qualify:Fun.id else True in
    pieces := (tuple, dims, f) :: !pieces;
    if accept st SEMI then go ()
  in
  go ();
  expect st RBRACE "}";
  List.rev !pieces

let set (s : string) : Set.t =
  let st = { toks = tokenize s; src = s } in
  let pieces = parse_set_pieces st in
  match pieces with
  | [] -> raise (Parse_error "empty set expression")
  | (tuple, dims, _) :: _ ->
      let space = Space.make tuple dims in
      let n = List.length dims in
      let ds =
        List.concat_map
          (fun (t', dims', f) ->
            if t' <> tuple || List.length dims' <> n then
              raise (Parse_error "set pieces must share one space");
            build_bsets ~nvis:n ~lookup:(lookup_in dims') f)
          pieces
      in
      Set.of_bsets space ds

(* Output tuples may contain arbitrary quasi-affine expressions over the
   input dims (e.g. [{ S[i,j] -> A[i+j] }] or [{ PE[i,j] -> PE[i, j+1] }]).
   A position that is a plain identifier not colliding with any input dim
   becomes a fresh output dimension; every other position gets a synthetic
   name plus an equality constraint. *)
let parse_out_tuple st ~in_dims : string * string list * (string * Aff.t) list
    =
  let name =
    match peek st with
    | IDENT n
      when st.toks <> []
           && (match List.nth_opt st.toks 1 with
              | Some (LBRACK, _) -> true
              | _ -> false) ->
        ignore (next st);
        n
    | _ -> ""
  in
  expect st LBRACK "[";
  let dims = ref [] and eqs = ref [] and k = ref 0 in
  if peek st <> RBRACK then begin
    let rec go () =
      let e = parse_expr st ~qualify:Fun.id in
      (match e with
      | Aff.Var v when (not (List.mem v in_dims)) && not (List.mem v !dims) ->
          dims := !dims @ [ v ]
      | _ ->
          let d = Printf.sprintf "_o%d" !k in
          dims := !dims @ [ d ];
          eqs := (d, e) :: !eqs);
      incr k;
      if accept st COMMA then go ()
    in
    go ()
  end;
  expect st RBRACK "]";
  (name, !dims, List.rev !eqs)

let parse_map_pieces st =
  expect st LBRACE "{";
  let pieces = ref [] in
  let rec go () =
    let t1, d1 = parse_tuple st in
    expect st ARROW "->";
    let t2, d2, out_eqs = parse_out_tuple st ~in_dims:d1 in
    let f = if accept st COLON then parse_formula st ~qualify:Fun.id else True in
    (* Fold the output equalities into the formula. *)
    let f =
      List.fold_left
        (fun acc (d, e) ->
          let atom = Atom (Aff.Var d, `Eq, e) in
          match acc with And fs -> And (atom :: fs) | _ -> And [ atom; acc ])
        f out_eqs
    in
    pieces := (t1, d1, t2, d2, f) :: !pieces;
    if accept st SEMI then go ()
  in
  go ();
  expect st RBRACE "}";
  List.rev !pieces

let map (s : string) : Map.t =
  let st = { toks = tokenize s; src = s } in
  let pieces = parse_map_pieces st in
  match pieces with
  | [] -> raise (Parse_error "empty map expression")
  | (t1, d1, t2, d2, _) :: _ ->
      let dom = Space.make t1 d1 and ran = Space.make t2 d2 in
      let n1 = List.length d1 and n2 = List.length d2 in
      let ds =
        List.concat_map
          (fun (t1', d1', t2', d2', f) ->
            if t1' <> t1 || t2' <> t2 then
              raise (Parse_error "map pieces must share spaces");
            let all = d1' @ d2' in
            if List.length all <> n1 + n2 then
              raise (Parse_error "map pieces must share arities");
            build_bsets ~nvis:(n1 + n2) ~lookup:(lookup_in all) f)
          pieces
      in
      Map.of_bsets dom ran ds

(* Parse one stand-alone quasi-affine expression over the given dims
   (used by the CLI to read space/time stamp coordinates). *)
let expr ~dims (s : string) : Aff.t =
  let st = { toks = tokenize s; src = s } in
  let e = parse_expr st ~qualify:Fun.id in
  (match peek st with
  | EOF -> ()
  | _ -> err st "trailing input in expression");
  List.iter
    (fun v ->
      if not (List.mem v dims) then
        raise (Parse_error ("unknown dimension " ^ v ^ " in " ^ s)))
    (Aff.free_vars e);
  e

(* Split on top-level commas and parse each piece with {!expr}. *)
let exprs ~dims (s : string) : Aff.t list =
  let parts = ref [] and buf = Buffer.create 16 and depth = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '(' ->
          incr depth;
          Buffer.add_char buf c
      | ')' ->
          decr depth;
          Buffer.add_char buf c
      | ',' when !depth = 0 ->
          parts := Buffer.contents buf :: !parts;
          Buffer.clear buf
      | c -> Buffer.add_char buf c)
    s;
  parts := Buffer.contents buf :: !parts;
  List.rev_map (expr ~dims) !parts

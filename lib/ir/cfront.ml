(* A small C frontend: parses the perfectly-nested loop form that TENET
   takes as input (Figure 2, "tensor operation in C"), e.g.

     for (i = 0; i < 64; i++)
       for (j = 0; j < 64; j++)
         for (k = 0; k < 64; k++)
           Y[i][j] += A[i][k] * B[k][j];

   Supported: literal loop bounds, [<] / [<=] tests, [i++] / [i += 1] /
   [i = i + 1] increments, a single unconditional statement whose
   left-hand side is the output tensor ([=] or [+=]), and affine
   subscripts over the iterators.  The right-hand side may be any
   arithmetic combination of tensor references and literals; only the
   references matter for dataflow modeling. *)

module Aff = Tenet_isl.Aff

exception Syntax_error of string

type token =
  | INT of int
  | IDENT of string
  | KFOR
  | LP
  | RP
  | LB
  | RB
  | SEMI
  | ASSIGN
  | PLUS_ASSIGN
  | PLUSPLUS
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | LT
  | LE
  | COMMA
  | EOF

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let emit t = toks := t :: !toks in
  let is_id_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  in
  let is_id c = is_id_start c || (c >= '0' && c <= '9') in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '{' || c = '}' then
      incr i
    else if c = '/' && !i + 1 < n && s.[!i + 1] = '/' then begin
      while !i < n && s.[!i] <> '\n' do
        incr i
      done
    end
    else if c >= '0' && c <= '9' then begin
      let j = ref !i in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
        incr j
      done;
      let lit = String.sub s !i (!j - !i) in
      (match int_of_string_opt lit with
      | Some v -> emit (INT v)
      | None ->
          raise
            (Syntax_error
               (Printf.sprintf "integer literal %s is past the int range"
                  lit)));
      i := !j
    end
    else if is_id_start c then begin
      let j = ref !i in
      while !j < n && is_id s.[!j] do
        incr j
      done;
      let w = String.sub s !i (!j - !i) in
      i := !j;
      emit (match w with "for" -> KFOR | "int" -> COMMA (* ignore decls *) | _ -> IDENT w)
    end
    else begin
      let two = if !i + 1 < n then String.sub s !i 2 else "" in
      match two with
      | "+=" ->
          emit PLUS_ASSIGN;
          i := !i + 2
      | "++" ->
          emit PLUSPLUS;
          i := !i + 2
      | "<=" ->
          emit LE;
          i := !i + 2
      | _ -> (
          incr i;
          match c with
          | '(' -> emit LP
          | ')' -> emit RP
          | '[' -> emit LB
          | ']' -> emit RB
          | ';' -> emit SEMI
          | '=' -> emit ASSIGN
          | '+' -> emit PLUS
          | '-' -> emit MINUS
          | '*' -> emit STAR
          | '/' -> emit SLASH
          | '<' -> emit LT
          | ',' -> emit COMMA
          | c -> raise (Syntax_error (Printf.sprintf "unexpected character %c" c)))
    end
  done;
  (* drop the COMMA placeholders standing for "int" *)
  List.rev (EOF :: List.filter (fun t -> t <> COMMA) !toks)

type state = { mutable toks : token list }

let peek st = match st.toks with [] -> EOF | t :: _ -> t

let next st =
  match st.toks with
  | [] -> EOF
  | t :: rest ->
      st.toks <- rest;
      t

let expect st t what =
  if next st <> t then raise (Syntax_error ("expected " ^ what))

let expect_ident st what =
  match next st with
  | IDENT v -> v
  | _ -> raise (Syntax_error ("expected identifier: " ^ what))

let expect_int st what =
  match next st with
  | INT v -> v
  | MINUS -> (
      match next st with
      | INT v -> -v
      | _ -> raise (Syntax_error ("expected integer: " ^ what)))
  | _ -> raise (Syntax_error ("expected integer: " ^ what))

(* --- affine subscript expressions --- *)

let rec parse_expr st : Aff.t =
  let lhs = parse_term st in
  parse_expr_rest st lhs

and parse_expr_rest st lhs =
  match peek st with
  | PLUS ->
      ignore (next st);
      parse_expr_rest st (Aff.Add (lhs, parse_term st))
  | MINUS ->
      ignore (next st);
      parse_expr_rest st (Aff.Sub (lhs, parse_term st))
  | _ -> lhs

and parse_term st =
  let lhs = parse_factor st in
  parse_term_rest st lhs

and parse_term_rest st lhs =
  match peek st with
  | STAR ->
      ignore (next st);
      parse_term_rest st (Aff.Mul (lhs, parse_factor st))
  | SLASH ->
      ignore (next st);
      let d = expect_int st "divisor" in
      if d <= 0 then
        raise
          (Syntax_error
             (Printf.sprintf
                "division by %d: expected a positive integer literal" d));
      parse_term_rest st (Aff.Fdiv (lhs, d))
  | _ -> lhs

and parse_factor st =
  match next st with
  | INT v -> Aff.Int v
  | IDENT v -> Aff.Var v
  | MINUS -> Aff.Neg (parse_factor st)
  | LP ->
      let e = parse_expr st in
      expect st RP ")";
      e
  | _ -> raise (Syntax_error "expected subscript expression")

(* --- tensor references --- *)

let parse_subscripts st =
  let subs = ref [] in
  let rec go () =
    match peek st with
    | LB ->
        ignore (next st);
        subs := parse_expr st :: !subs;
        expect st RB "]";
        go ()
    | _ -> ()
  in
  go ();
  List.rev !subs

(* Scan the right-hand side up to the terminating ';', collecting tensor
   references (IDENT immediately followed by '['). *)
let parse_rhs_refs st =
  let refs = ref [] in
  let rec go () =
    match next st with
    | SEMI -> ()
    | EOF -> raise (Syntax_error "missing ';'")
    | IDENT name when peek st = LB ->
        let subs = parse_subscripts st in
        refs := (name, subs) :: !refs;
        go ()
    | _ -> go ()
  in
  go ();
  List.rev !refs

(* --- loops --- *)

let parse_for_header st =
  expect st KFOR "for";
  expect st LP "(";
  let v = expect_ident st "loop variable" in
  expect st ASSIGN "=";
  let lo = expect_int st "lower bound" in
  expect st SEMI ";";
  let v2 = expect_ident st "loop variable in test" in
  if v2 <> v then raise (Syntax_error "loop test variable mismatch");
  let hi =
    match next st with
    | LT -> expect_int st "upper bound" - 1
    | LE -> expect_int st "upper bound"
    | _ -> raise (Syntax_error "expected < or <= in loop test")
  in
  expect st SEMI ";";
  let v3 = expect_ident st "loop variable in increment" in
  if v3 <> v then raise (Syntax_error "loop increment variable mismatch");
  (match next st with
  | PLUSPLUS -> ()
  | PLUS_ASSIGN ->
      if expect_int st "increment" <> 1 then
        raise (Syntax_error "only unit-stride loops are supported")
  | ASSIGN ->
      (* i = i + 1 *)
      let v4 = expect_ident st "increment" in
      if v4 <> v then raise (Syntax_error "loop increment variable mismatch");
      expect st PLUS "+";
      if expect_int st "increment" <> 1 then
        raise (Syntax_error "only unit-stride loops are supported")
  | _ -> raise (Syntax_error "expected ++ or += 1"));
  expect st RP ")";
  (v, lo, hi)

let parse (source : string) : Tensor_op.t =
  let st = { toks = tokenize source } in
  let iters = ref [] in
  while peek st = KFOR do
    iters := parse_for_header st :: !iters
  done;
  let iters = List.rev !iters in
  if iters = [] then raise (Syntax_error "expected at least one for loop");
  (* statement: OUT[subs] (= | +=) rhs ; *)
  let out = expect_ident st "output tensor" in
  let out_subs = parse_subscripts st in
  if out_subs = [] then raise (Syntax_error "output must be subscripted");
  (match next st with
  | ASSIGN | PLUS_ASSIGN -> ()
  | _ -> raise (Syntax_error "expected = or +="));
  let refs = parse_rhs_refs st in
  if peek st <> EOF then raise (Syntax_error "trailing input after statement");
  let accesses =
    { Tensor_op.tensor = out; subscripts = out_subs; direction = Tensor_op.Write }
    :: List.map
         (fun (name, subs) ->
           { Tensor_op.tensor = name; subscripts = subs; direction = Tensor_op.Read })
         refs
  in
  let op = Tensor_op.make ~iters ~accesses () in
  let dims = Tensor_op.iter_names op in
  List.iter
    (fun (a : Tensor_op.access) ->
      List.iter (Aff.check_affine ~dims) a.Tensor_op.subscripts)
    accesses;
  op

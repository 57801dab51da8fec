(* Rendering of sets in ISL-like syntax.

   Defined div dimensions are inlined as [floor((...)/d)] expressions;
   free existentials are named [e0, e1, ...] and introduced with
   [exists]. *)

let term_to_string name coeff first =
  if coeff = 0 then ""
  else begin
    let sign =
      if first then (if coeff < 0 then "-" else "")
      else if coeff < 0 then " - "
      else " + "
    in
    let mag = abs coeff in
    if mag = 1 then sign ^ name
    else sign ^ string_of_int mag ^ "*" ^ name
  end

(* Names for all variables of a basic set: visible names then existential
   names; defined divs render as their floor expression. *)
let var_names (names : string list) (b : Bset.t) : string array =
  let nvars = Bset.nvars b in
  let out = Array.make nvars "" in
  List.iteri (fun i n -> out.(i) <- n) names;
  (* Defined divs may reference earlier existentials, so fill in order. *)
  Array.iteri
    (fun e def ->
      let v = b.Bset.nvis + e in
      match def with
      | None -> out.(v) <- Printf.sprintf "e%d" e
      | Some (d : Bset.def) ->
          let buf = Buffer.create 32 in
          let first = ref true in
          Array.iteri
            (fun i c ->
              if c <> 0 then begin
                Buffer.add_string buf (term_to_string out.(i) c !first);
                first := false
              end)
            d.Bset.num;
          if d.Bset.dk <> 0 || !first then begin
            let k = d.Bset.dk in
            if !first then Buffer.add_string buf (string_of_int k)
            else if k > 0 then Buffer.add_string buf (" + " ^ string_of_int k)
            else Buffer.add_string buf (" - " ^ string_of_int (-k))
          end;
          out.(v) <-
            Printf.sprintf "floor((%s)/%d)" (Buffer.contents buf) d.Bset.den)
    b.Bset.defs;
  out

let con_to_string names (c : Bset.con) =
  let buf = Buffer.create 32 in
  let first = ref true in
  Array.iteri
    (fun i coeff ->
      if coeff <> 0 then begin
        Buffer.add_string buf (term_to_string names.(i) coeff !first);
        first := false
      end)
    c.Bset.a;
  if !first then Buffer.add_string buf "0";
  let k = c.Bset.k in
  if k > 0 then Buffer.add_string buf (" + " ^ string_of_int k)
  else if k < 0 then Buffer.add_string buf (" - " ^ string_of_int (-k));
  Buffer.add_string buf (if c.Bset.eq then " = 0" else " >= 0");
  Buffer.contents buf

let bset_body names (b : Bset.t) =
  let vnames = var_names names b in
  let frees = ref [] in
  Array.iteri
    (fun e def -> if def = None then frees := Printf.sprintf "e%d" e :: !frees)
    b.Bset.defs;
  let cons = List.map (con_to_string vnames) b.Bset.cons in
  let body = String.concat " and " cons in
  match (!frees, cons) with
  | [], [] -> ""
  | [], _ -> body
  | fs, _ ->
      Printf.sprintf "exists %s: %s" (String.concat ", " (List.rev fs))
        (if cons = [] then "true" else body)

let tuple_to_string (sp : Space.t) =
  sp.Space.tuple ^ "[" ^ String.concat ", " sp.Space.dims ^ "]"

let set_to_string (sp : Space.t) (ds : Bset.t list) =
  let head = tuple_to_string sp in
  match ds with
  | [] -> Printf.sprintf "{ %s : false }" head
  | _ ->
      let pieces =
        List.map
          (fun b ->
            let body = bset_body sp.Space.dims b in
            if body = "" then head else head ^ " : " ^ body)
          ds
      in
      "{ " ^ String.concat "; " pieces ^ " }"

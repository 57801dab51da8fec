(* JSON-lines framing (docs/serving.md): one request object per line in,
   one response object per line out.  Blank lines and lines starting
   with '#' are skipped so request files can be annotated.  A line that
   is not valid JSON still produces a well-formed error response — the
   stream never dies on a bad request. *)

module Json = Tenet_obs.Json

let is_comment line =
  let t = String.trim line in
  t = "" || (String.length t > 0 && t.[0] = '#')

(* The typed front half of the server loops: one total decode up front,
   so stats detection, admission priority and deadline handling all
   read typed fields instead of probing raw JSON members. *)
let parse_request (line : string) : (Api.Request.t, Api.Response.t) result =
  match Json.parse line with
  | j -> Api.decode j
  | exception Json.Parse_error msg ->
      Error
        (Api.Response.error ~id:"" Api.Response.Bad_request
           ("malformed JSON request: " ^ msg))

let response_line (resp : Api.Response.t) : string =
  Json.to_string (Api.Response.to_json resp)

let handle_line (line : string) : Api.Response.t =
  match parse_request line with Ok r -> Api.run r | Error resp -> resp

let read_requests (ic : in_channel) : string list =
  let rec go acc =
    match input_line ic with
    | line when is_comment line -> go acc
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let drain_lines (buf : Buffer.t) : string list =
  let s = Buffer.contents buf in
  let rec go start acc =
    match String.index_from_opt s start '\n' with
    | Some i -> go (i + 1) (String.sub s start (i - start) :: acc)
    | None ->
        Buffer.clear buf;
        Buffer.add_substring buf s start (String.length s - start);
        List.rev acc
  in
  go 0 []

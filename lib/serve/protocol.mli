(** JSON-lines framing for the serve protocol: one request object per
    line in, one response object per line out (docs/serving.md). *)

val is_comment : string -> bool
(** Blank lines and ['#']-prefixed lines carry no request. *)

val parse_request : string -> (Api.Request.t, Api.Response.t) result
(** Total decode of one line to a typed request; [Error] carries the
    ready-to-send [Bad_request] / [Unsupported_version] response
    (malformed JSON, unknown fields, bad version), with the [id]
    recovered from the raw object when possible. *)

val response_line : Api.Response.t -> string
(** One compact JSON line, no trailing newline. *)

val handle_line : string -> Api.Response.t
(** Parse and run one request line.  Never raises. *)

val read_requests : in_channel -> string list
(** Every request line up to end of file, blank and ['#'] lines
    skipped. *)

val drain_lines : Buffer.t -> string list
(** Split the complete lines (newline dropped) off the front of a read
    buffer, leaving the unterminated tail in it. *)

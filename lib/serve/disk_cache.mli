(** The persistent tier of the result cache: a versioned JSON-lines
    file written atomically (render to temp, rename), loaded tolerantly
    (missing file, foreign version or a torn tail load as fewer
    entries, never an error), merged across concurrent writers through
    a lock file.  Entries carry the serialized response-body bytes, so
    replays are byte-identical.  See docs/serving.md ("The disk
    cache"). *)

type entry = { key : string; body : string }
(** [key] is the canonical request fingerprint; [body] the serialized
    response-body object — exactly the bytes the server writes after
    the [{"api_version":..,"id":..] envelope. *)

val load : dir:string -> entry list
(** Every well-formed entry, in file order.  Never raises on missing,
    foreign or damaged files. *)

val save : dir:string -> entry list -> unit
(** Atomically replace the cache file (entries sorted by key; the
    directory is created if needed).  Raises on I/O failure — callers
    on shutdown paths catch and drop. *)

val merge_save : dir:string -> entry list -> int
(** Union the entries with the current on-disk state (new entries win
    per key) and {!save} the result, serialized against other
    [merge_save] callers through a lock file.  Returns the number of
    entries written. *)

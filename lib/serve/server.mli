(** The persistent analysis service ([tenet serve]) and the offline
    batch runner ([tenet batch]).  See docs/serving.md for the
    protocol, the admission watermarks and the deadline/overload
    semantics.

    Every entry point takes one {!Config.t} record; {!Config.load}
    layers the TENET_SERVE_* environment over the defaults and the CLI
    layers its flags on top. *)

module Config = Config

val run : Config.t -> unit
(** Run the service described by the config: over stdin/stdout, or
    listening on [socket]; in-process on the domain pool
    ([workers = 1]), or across a pre-forked {!Fleet} ([workers > 1] —
    forking happens before any domain spawn, so call this before any
    parallel work runs in this process).  Requests pass graduated
    admission ({!Admission}): low-priority sheds first at the low
    watermark, normal at the normal watermark, everything but [stats]
    at the hard queue limit, and deadline-expired-in-queue work sheds
    at dispatch under pressure.  [stats] is answered inline.  With
    [cache_dir] set, the persistent result cache is loaded first
    (pre-fork: workers inherit it warm) and merged back to disk when a
    session ends.  Raises [Failure] on an invalid config
    ({!Config.validate}). *)

val run_batch : Config.t -> in_channel -> out_channel -> unit
(** Evaluate every JSON-lines request (blank and ['#'] lines skipped)
    and print responses in input order.  Deterministic: each response
    depends only on its line, so the output is byte-identical at any
    job count, at any worker count, and to the same requests run
    one-shot.  No admission control — batch is offline.  With
    [cache_dir] set, loads the persistent cache first and merges it
    back after (each fleet worker merges its own slice). *)

val session : Config.t -> in_channel -> out_channel -> unit
(** One in-process serving session ([workers = 1]) on explicit
    channels, returning once the input ends and every admitted request
    has been answered; {!run} runs one per connection.  Like every
    runner it ignores SIGPIPE, so a client disconnecting mid-response
    surfaces as a catchable I/O error rather than terminating the
    process, and turns telemetry on.  Once a read or a write on the
    client fails, the session stops reading, drops every response still
    due and returns only after its in-flight requests have finished, so
    none of them writes to the next connection.  The persistent tier
    is not touched. *)

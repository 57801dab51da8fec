(** Graduated admission control: queue-depth watermarks shed
    low-priority and deadline-expired work before the hard queue limit
    sheds everything.  Each shed increments a per-tier [serve.shed_*]
    counter plus the legacy [serve.overloaded] total; the response kind
    stays [Overloaded].  See docs/serving.md ("Admission control"). *)

type priority = [ `High | `Normal | `Low ]
type reason = Hard_limit | Normal_priority | Low_priority | Expired
type verdict = Admit | Shed of reason

val decide : Config.t -> depth:int -> priority:priority -> verdict
(** The watermark policy at submission time: at or past the queue limit
    everything sheds; past {!Config.shed_normal_watermark} normal
    priority sheds; past {!Config.shed_low_watermark} low priority
    sheds.  High priority only hits the hard limit. *)

val under_pressure : Config.t -> depth:int -> bool
(** Whether a request admitted at [depth] was admitted under pressure
    (at or past the low watermark): only such requests shed at dispatch
    when their deadline expired in the queue. *)

val expired_in_queue : deadline_ms:int option -> waited_ms:float -> bool
(** Whether a request's whole deadline elapsed while it waited in the
    queue.  Callers apply this only to requests admitted under pressure
    (depth at or past the low watermark at submission). *)

val note : reason -> unit
(** Count one shed: the per-tier counter plus [serve.overloaded]. *)

val message : Config.t -> waited_ms:float -> reason -> string
(** The human-readable response message.  [Hard_limit] keeps the legacy
    "work queue is full" wording byte-for-byte. *)

val counts : unit -> (string * int) list
(** Lifetime shed totals per tier, for the stats payload:
    [("hard", _); ("normal", _); ("low", _); ("expired", _)]. *)

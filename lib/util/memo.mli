(** Bounded, domain-safe memo tables for process-wide caches.

    One mutex guards each table, held only for the lookup or the
    insertion: callers compute a missing value outside the lock, so two
    domains missing the same key may both compute it.  {!Make.add} keeps
    whichever value arrived first and hands it to both, so a memo of a
    deterministic function returns one physical value per key.

    A table never holds more than its [max_entries]: inserting into a
    full table first drops every entry.  A flush costs only
    recomputation, and a bound sized above the working set never fires. *)

module Make (K : Hashtbl.HashedType) : sig
  type 'v t

  val create : max_entries:int -> unit -> 'v t
  (** An empty table.  Raises [Invalid_argument] on [max_entries < 1]. *)

  val find : 'v t -> K.t -> 'v option

  val add : 'v t -> K.t -> 'v -> 'v
  (** [add t k v] inserts [v] unless [k] is present, and returns the
      resident value: [v], or the value an earlier [add] left.  When
      the table holds [max_entries] entries, it is emptied first. *)

  val clear : 'v t -> unit
  (** Drop every entry. *)

  val length : 'v t -> int
  (** The number of entries, between 0 and [max_entries]. *)
end

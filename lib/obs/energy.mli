(** Energy/waiting accounting over span exports.

    SNIPPETS.md's coordination-cost argument (and ROADMAP item 4): what a
    consensus node spends most of its time on is not computing but {e
    waiting}. Under the abstract MAC model computation is zero-time, so a
    node's timeline folds into exactly three segments:

    - {b active} — transmitting: inside a ["broadcast"] complete span
      (opened at [Broadcast_start], closed by the ack or a crash);
    - {b crashed} — between a ["crash"] instant and the matching
      ["recover"] (or the end of the run);
    - {b idle} — everything else: up, radio silent, waiting on others.

    Per node, [active + idle + crashed = duration] {e exactly} (idle is the
    remainder after interval-union arithmetic, so overlap or truncation in a
    hand-built trace can never break the identity — an acceptance-criteria
    invariant the tests assert).

    Energy proxy: transmission dominates radio energy budgets, so
    [active_per_command] (total active ticks / committed commands) is the
    energy-per-committed-command figure B12 reports, and
    [waiting_fraction] (idle / up-time) is the waiting share. *)

type segments = { active : int; idle : int; crashed : int }

type t = {
  duration : int;  (** run end time, ticks *)
  per_node : segments array;
}

(** [account ~n ~duration spans] folds a {!Span} export (as produced by
    [Amac.Trace_export.spans]) into per-node segments. Intervals are
    clamped to [\[0, duration)]; active time inside a crashed window counts
    as crashed. *)
val account : n:int -> duration:int -> Span.event list -> t

(** [idle / (active + idle)] over all nodes — the fraction of total
    {e up}-time spent waiting. 0 when there is no up-time. *)
val waiting_fraction : t -> float

(** [total active / committed] — mean transmission ticks per committed
    command. [None] when [committed = 0]. *)
val active_per_command : t -> committed:int -> float option

val to_json : t -> Json.t

val render : t -> string

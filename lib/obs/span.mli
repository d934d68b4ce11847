(** Span-based trace events and their machine-readable exports.

    A {e complete} span is a named interval on one node's track (in the
    simulator: a broadcast opened at its [Broadcast_start] and closed by its
    ack); an {e instant} is a point event (a delivery, a decision, a crash).
    Both carry a category and free-form JSON args.

    Two export formats, both line-oriented enough to diff byte-for-byte:

    - {b JSONL}: one JSON object per line, in event order.
    - {b Chrome [trace_event]}: [{"traceEvents":[...]}] using ["ph":"X"]
      (complete) and ["ph":"i"] (instant) events with [ts]/[dur] in
      simulator ticks (interpreted as microseconds by viewers), so a file
      written by {!to_chrome} opens directly in Perfetto or
      [chrome://tracing].

    Both formats parse back ({!of_jsonl}, {!of_chrome}); an export followed
    by a parse yields the same event multiset — the round-trip contract the
    tests and the CI trace validator check. *)

type complete = {
  name : string;
  cat : string;
  start_time : int;  (** ticks *)
  duration : int;  (** ticks; 0 allowed *)
  node : int;  (** rendered as the Chrome [tid] *)
  args : (string * Json.t) list;
}

type instant = {
  name : string;
  cat : string;
  time : int;
  node : int;
  args : (string * Json.t) list;
}

type event = Complete of complete | Instant of instant

(** [same_multiset a b] — equal up to reordering. *)
val same_multiset : event list -> event list -> bool

val to_jsonl : event list -> string

val to_chrome : event list -> string

(** @raise Failure on malformed input or an event shape this module does not
    produce. *)
val of_jsonl : string -> event list

val of_chrome : string -> event list

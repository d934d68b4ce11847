(** Small statistics and table-formatting helpers for the bench harness.

    NaN policy: {!percentile} and {!stddev} drop NaN samples before
    computing (an all-NaN list is rejected like an empty one), and
    {!stddev} clamps a rounding-negative variance to zero — degenerate
    inputs never propagate NaN into a table or a [BENCH.json]. *)

(** [mean xs] — arithmetic mean. @raise Invalid_argument on []. *)
val mean : float list -> float

(** [minimum xs] / [maximum xs]. @raise Invalid_argument on []. *)
val minimum : float list -> float

val maximum : float list -> float

(** [percentile p xs] with [p] in [\[0, 100\]] (nearest-rank). NaN samples
    are ignored. @raise Invalid_argument on [], all-NaN input, or NaN or
    out-of-range [p]. *)
val percentile : float -> float list -> float

val median : float list -> float

(** [stddev xs] — population standard deviation; NaN samples are ignored
    and the result is never NaN. @raise Invalid_argument on [] or all-NaN
    input. *)
val stddev : float list -> float

(** Aligned plain-text tables, used by [bench/main.exe] to print the
    experiment tables recorded in EXPERIMENTS.md. Each table doubles as the
    machine-readable record behind [BENCH.json]: {!to_json} mirrors the
    title, columns, rows and notes exactly as printed, plus free-form
    metadata ({!set_meta}) and raw measurement series ({!add_series}) with
    p50/p99 summaries. *)
module Table : sig
  type t

  (** [create ~title ~columns] starts a table. *)
  val create : title:string -> columns:string list -> t

  (** [add_row t cells] appends a row; cell count must match the header. *)
  val add_row : t -> string list -> unit

  (** [add_note t note] appends a free-text footnote line. *)
  val add_note : t -> string -> unit

  (** [set_meta t key value] attaches a key/value pair (seeds, F_ack, …)
      carried only in the JSON mirror. *)
  val set_meta : t -> string -> string -> unit

  (** [add_series t ~name values] attaches a raw measurement series; the
      JSON mirror reports count/mean/p50/p99/min/max (over the finite
      values) alongside the values themselves. *)
  val add_series : t -> name:string -> float list -> unit

  (** [render t] is the formatted table (title, ruled header, rows, notes). *)
  val render : t -> string

  (** [print t] writes [render t] to stdout. *)
  val print : t -> unit

  (** [to_json t] — the machine-readable mirror: title, columns, rows and
      notes exactly as printed, plus meta and series. *)
  val to_json : t -> Obs.Json.t
end

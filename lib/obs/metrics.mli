(** A typed metrics registry: counters, gauges and fixed-bucket histograms,
    each identified by a name plus a set of string labels.

    The registry is the write side: the engine, runner, fault layer and
    binaries register instruments (registration is idempotent — asking for
    the same (name, labels) twice returns the same instrument) and bump them
    on the hot path with plain int/float mutations. The read side is a
    {!snapshot}: an immutable, deterministically ordered list of samples
    that can be rendered as text or exported as JSON.

    Determinism contract: a snapshot's order depends only on the instrument
    names and labels (sorted), never on registration or hash order, so two
    identical runs produce byte-identical [to_json] output. *)

type registry

type counter

type gauge

type histogram

val create : unit -> registry

(** [counter reg ?labels name] registers (or finds) a monotonically
    increasing integer counter. @raise Invalid_argument if (name, labels)
    is already registered as a different instrument kind. *)
val counter : registry -> ?labels:(string * string) list -> string -> counter

val inc : counter -> unit

val add : counter -> int -> unit

(** [gauge reg ?labels name] registers (or finds) a float gauge. *)
val gauge : registry -> ?labels:(string * string) list -> string -> gauge

val set : gauge -> float -> unit

(** [observe_max g v] — high-water-mark update: [set] only if [v] exceeds
    the current value. *)
val observe_max : gauge -> float -> unit

(** [histogram reg ?labels ?buckets name] registers (or finds) a
    fixed-bucket histogram ({!Histogram.default_buckets} by default).
    [buckets] is only consulted on first registration. *)
val histogram :
  registry ->
  ?labels:(string * string) list ->
  ?buckets:float list ->
  string ->
  histogram

val observe : histogram -> float -> unit

(** {1 Snapshots} *)

type histogram_summary = {
  count : int;
  sum : float;
  buckets : (float * int) list;  (** non-cumulative; overflow bound = inf *)
  p50 : float option;  (** [None] when [count = 0] *)
  p90 : float option;
  p99 : float option;
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram_summary of histogram_summary

type sample = {
  name : string;
  labels : (string * string) list;  (** sorted by key *)
  value : value;
}

(** Samples sorted by (name, labels) — deterministic for identical runs. *)
type snapshot = sample list

val snapshot : registry -> snapshot

val to_json : snapshot -> Json.t

(** [render snapshot] — human-oriented text, one line per sample. *)
val render : snapshot -> string

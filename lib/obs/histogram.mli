(** Fixed-bucket histograms with quantile estimation.

    Buckets are defined by a strictly increasing list of upper bounds; an
    implicit overflow bucket catches everything above the last bound.
    Observations are O(log #buckets); memory is O(#buckets) regardless of
    how many values are observed — the shape the metrics registry needs for
    per-event latencies. Quantiles are estimated by nearest-rank over the
    cumulative bucket counts with linear interpolation inside the bucket,
    clamped to the observed [min]/[max] (so estimates of integer-valued
    latencies are exact whenever a bucket holds a single distinct value). *)

type t

(** Upper bounds suited to simulator tick latencies: a 1-2-5 decade series
    from 1 to 100_000. *)
val default_buckets : float list

(** [create ~buckets] — [buckets] are finite, strictly increasing upper
    bounds. @raise Invalid_argument on an empty or unsorted list, or
    non-finite bounds. *)
val create : buckets:float list -> t

(** [observe t v] adds one observation. NaN observations are ignored (they
    poison no estimate). *)
val observe : t -> float -> unit

val count : t -> int

val sum : t -> float

(** [bucket_counts t] — per-bucket (upper_bound, count) pairs, the overflow
    bucket last as [(infinity, count)]. Counts are not cumulative. *)
val bucket_counts : t -> (float * int) list

(** [quantile t q] with [q] in [\[0, 1\]].
    @raise Invalid_argument on an empty histogram or out-of-range [q]. *)
val quantile : t -> float -> float

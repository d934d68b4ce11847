(** Fast, non-allocating structural fingerprints for model-checker states.

    The schedule-space explorer keys every reachable configuration; doing
    that with [Digest.string (Marshal.to_string ...)] allocates the whole
    marshalled buffer and runs MD5 over it — the dominant cost of
    exploration (BENCH.json B5). A fingerprint is instead an accumulator
    folded by hand over the state's fields: each combinator mixes one
    scalar into a 63-bit hash with splitmix-style avalanche rounds, no
    intermediate buffer, no C digest call.

    Combinators take the accumulator {e last} so folds read as pipelines:

    {[
      acc |> Fingerprint.int st.round |> Fingerprint.bool st.sending
          |> Fingerprint.list Fingerprint.int st.witnesses
    ]}

    Structure markers: [option] and [list] mix a tag/length before their
    payload, so [Some 0] vs [None] and [[0]] vs [[]; [0]]-style shape
    ambiguities cannot alias. Two structurally equal values always fold to
    the same fingerprint; distinct values collide with probability
    ~2^-63 per pair (the explorer can double-check against the Marshal
    digest — see {!Mcheck.Explore.config.check_collisions}). The
    explorer's seen-set over these keys is [Mcheck.Seen]. *)

type t = private int

(** The empty fold (FNV-style offset basis). *)
val empty : t

val int : int -> t -> t

val bool : bool -> t -> t

(** [None] and [Some v] are distinguished by a tag. *)
val option : ('a -> t -> t) -> 'a option -> t -> t

(** Mixes the length, then each element in order. *)
val list : ('a -> t -> t) -> 'a list -> t -> t

(** Mixes the length, then each element in order. *)
val array : ('a -> t -> t) -> 'a array -> t -> t

(** The finished 63-bit value (non-negative); its low bits are uniformly
    mixed, so a table may index with them directly. *)
val to_int : t -> int

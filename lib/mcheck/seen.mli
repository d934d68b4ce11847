(** The explorer's seen-set: for each configuration key, the sleep sets
    already explored from it.

    A sleep set is an [int] bitmask over the sleepable steps (see
    {!Explore}). A visit with sleep set [s] is redundant iff some stored set
    is a subset of [s]: everything the new visit would explore, an older one
    did. Otherwise [s] is stored and every stored superset of [s] is
    dropped, so a key holds an antichain.

    Almost every key holds one set, so each key sits next to its single
    mask in a slot of a page of [Bytes]: 8 bytes of key plus the
    [(bits + 8) / 8] bytes a mask of the table's width needs, with no box
    per entry and nothing for the major GC to scan. Pages have a fixed
    size and a small directory, indexed by the low bits of the mixed key,
    points at them. A page that fills splits in place into itself and one
    new page (extendible hashing), so growing never holds an old and a new
    table at once. The rare key whose antichain holds two or more
    incomparable sets moves to a small side [Hashtbl], and moves back when
    a later visit shrinks the antichain to one set. *)

type t

type verdict =
  | Dedup  (** a stored set is a subset of the incoming one *)
  | Fresh  (** first visit of this key *)
  | Revisit  (** known key, but no stored set covers the incoming one *)

(** [create bits] is an empty table for sleep masks below [2^bits].
    @raise Invalid_argument unless [0 <= bits <= 62]. *)
val create : int -> t

(** [visit t key sleep] judges the visit, then records it. Any [int] is a
    valid key.
    @raise Invalid_argument if [sleep] is negative or not below
    [2^bits]. *)
val visit : t -> int -> int -> verdict

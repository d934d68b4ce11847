(** The explorer's seen-set: for each configuration key, the sleep sets
    already explored from it.

    A sleep set is an [int] bitmask over the sleepable steps (see
    {!Explore}). A visit with sleep set [s] is redundant iff some stored set
    is a subset of [s]: everything the new visit would explore, an older one
    did. Otherwise [s] is stored and every stored superset of [s] is
    dropped, so a key holds an antichain.

    Almost every key holds one set, so the table is one flat [int array]
    with each key next to its single mask: no box per entry, and nothing
    for the major GC to trace. The rare key whose antichain holds two or
    more incomparable sets moves to a small side [Hashtbl], and moves back
    when a later visit shrinks the antichain to one set. *)

type t

type verdict =
  | Dedup  (** a stored set is a subset of the incoming one *)
  | Fresh  (** first visit of this key *)
  | Revisit  (** known key, but no stored set covers the incoming one *)

(** [create n] pre-sizes for about [n] keys; the table grows as needed. *)
val create : int -> t

(** [visit t key sleep] judges the visit, then records it. Any [int] is a
    valid key.
    @raise Invalid_argument if [sleep] is negative. *)
val visit : t -> int -> int -> verdict

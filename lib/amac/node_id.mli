(** Node identities.

    The simulator always addresses nodes by a dense {e index} in
    [\[0, n)] (array slots). Separately, each node carries an {e identity}:
    either a unique id (an arbitrary integer, not necessarily dense — the
    upper bounds of the paper assume unique ids but no structure on them) or
    [Anonymous] (Sec 3.2 studies algorithms that cannot use ids at all).

    Keeping index and identity distinct lets the same engine run both
    id-based algorithms (two-phase, wPAXOS) and anonymous algorithms (the
    Thm 3.3 victim), and lets tests permute the id assignment independently
    of the topology. *)

type t =
  | Id of int  (** a unique identifier *)
  | Anonymous  (** no identifier available to the algorithm *)

(** [unique_exn t] is the integer id. @raise Invalid_argument on [Anonymous]
    — an anonymous algorithm has attempted to read an id, which is exactly
    the bug class Sec 3.2 is about. *)
val unique_exn : t -> int

(** [identity_assignment ~n ~kind] builds the id array handed to the engine:
    [`Dense] assigns 0..n-1 in index order, [`Shuffled rng] assigns a random
    permutation of 0..n-1, [`Offset k] assigns k, k+1, ..., and [`Anonymous]
    assigns no ids at all. *)
val identity_assignment :
  n:int ->
  kind:[ `Dense | `Shuffled of Rng.t | `Offset of int | `Anonymous ] ->
  t array

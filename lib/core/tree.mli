(** The tree-building service of wireless PAXOS (Alg 4), shared by
    [Consensus.Wpaxos] and [Smr].

    Every node runs a Bellman–Ford search for every root it hears of: it
    keeps, per root, the shortest hop distance seen and the neighbor that
    advertised it (the parent pointer responses are routed along), and
    queues one search message per root to re-advertise an improvement.
    After a run each node knows Θ(n) roots, so the per-event operations
    ({!improve}, {!readvertise}, {!pop}, {!parent}) take O(1) amortized
    expected time, independent of the number of roots.

    The queue discipline (the paper's UpdateQ):
    - at most one pending search per root, advertising [dist + 1];
    - FIFO by last update: re-queuing a root moves it to the back;
    - {!pop} pulls a preferred root (wPAXOS: the current leader) forward
      when it is pending, and otherwise takes the oldest entry. *)

type t

(** [create ~me] — the service at node [me]: [me] is its own root at
    distance 0 and parent of itself, with its initial search
    ([me], 1 hop) pending. *)
val create : me:int -> t

(** [improve t ~root ~hops ~sender] records a search for [root] heard
    from [sender] at [hops] hops. When [hops] is below the known distance
    (or [root] is new), the distance and parent are updated, the root is
    re-queued at the back advertising [hops + 1], and the result is [true]:
    the caller's cue to count a change event. Otherwise nothing changes. *)
val improve : t -> root:int -> hops:int -> sender:int -> bool

(** [readvertise t ~root] re-queues [root] at the back at its current
    distance, if [root] is known (hardened route refresh). *)
val readvertise : t -> root:int -> unit

(** [pop t ~prefer] dequeues the next search as [(root, hops)]: [prefer]'s
    entry when it is [Some r] and [r] is pending, otherwise the oldest
    pending entry. [None] when nothing is pending. *)
val pop : t -> prefer:int option -> (int * int) option

(** [parent t root] — the neighbor on the shortest known path to [root]. *)
val parent : t -> int -> int option

(** The pending searches as [(root, hops)], oldest first. *)
val pending : t -> (int * int) list

(** Hashes the distances and parents sorted by root, then {!pending} in
    queue order: logically equal services fingerprint equal whatever
    history of updates built them. *)
val fingerprint : t -> Amac.Fingerprint.t -> Amac.Fingerprint.t

(** An independent deep copy. *)
val clone : t -> t

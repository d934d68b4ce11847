(** Bounded exhaustive exploration of the schedule space.

    The abstract MAC layer's guarantees are {e ordering} constraints: every
    neighbor receives a broadcast before the sender's ack, and the ack
    arrives within [F_ack]. Since [F_ack] only bounds time — never the
    interleaving — the set of behaviours an [F_ack]-respecting adversary can
    produce is exactly the set of interleavings of {e deliver} and {e ack}
    events in which each broadcast's deliveries precede its ack. This module
    enumerates that set, up to a depth, over any [('s, 'm) Algorithm.t],
    checking agreement / validity / irrevocability on every reachable
    configuration (and, optionally, termination at quiescent ones).

    Every pending delivery (and, under a crash budget, every crash,
    including mid-broadcast ones) is a branch. [Lowerbound.Bivalence] walks
    the same configurations through {!valid_step}, which pins each sender's
    next delivery to its smallest unserved neighbor.

    Tractability comes from two reductions:
    - {b state deduplication}: configurations are keyed — by a fast
      structural fingerprint when the algorithm provides
      {!Amac.Algorithm.hooks} (no marshalling, no MD5), falling back to the
      digest of the marshalled bytes otherwise — so converging
      interleavings are explored once. Each node's fingerprint is cached
      beside the configuration, and so is its fold over (index, algorithm
      state, in-flight message): a delivery re-folds only its sender's
      [undelivered]/[decided]/[crashed] tail and its receiver;
    - {b sleep sets} (Godefroid-style partial-order reduction): after
      exploring a transition [t] from a configuration, [t] is put to sleep
      in the siblings' subtrees and stays asleep as long as only transitions
      independent of it execute — deliveries to distinct receivers commute,
      so one order of each commuting pair is pruned. A configuration is
      re-explored only when reached with a sleep set no stored visit
      subsumes, which keeps the reduction sound for state matching.

    A sleep set is an [int] bitmask: each delivery over a directed edge and
    each ack owns one bit, and a crash, dependent on every step, never
    sleeps and owns none. Membership, the child's sleep set and the subset
    test are each one or two word operations. This bounds {!explore} to
    topologies with 2|E| + n <= 62 ([clique:7] and [line:21] fit,
    [clique:8] does not). The seen-set is {!Seen}: one flat [int array]
    holding each key next to its single stored mask, with the rare key
    that stores two or more incomparable masks in a side table. Marshal
    keying interns each digest to an int and uses the same table.

    Cloning a configuration for a child transition likewise uses the
    algorithm's [clone] hook when present, instead of a Marshal
    round-trip. *)

type step =
  | Deliver of { sender : int; receiver : int }
  | Ack of int
  | Crash of int

val pp_step : Format.formatter -> step -> unit

type config = {
  max_depth : int;  (** longest explored schedule, in steps *)
  max_states : int;  (** distinct-configuration budget *)
  crash_budget : int;  (** crash steps allowed per schedule *)
  check_termination : bool;
      (** also report quiescent configurations where a live node never
          decided (meaningful for crash-free runs of terminating
          algorithms; a crash legitimately blocks e.g. two-phase) *)
  keying : [ `Fast | `Marshal ];
      (** [`Fast] keys the seen-set on the hooks' structural fingerprint
          (63-bit; distinct states alias with probability ~2^-63 per
          pair); [`Marshal] forces the digest-of-marshalled-bytes
          fallback. Algorithms without hooks always use the fallback. *)
  check_collisions : bool;
      (** debug mode for [`Fast]: additionally compute the Marshal digest
          per visit and count fingerprints claimed by two distinct
          digests (reported in [stats.collisions]) *)
}

(** [{ max_depth = 64; max_states = 2_000_000; crash_budget = 0;
    check_termination = false; keying = `Fast; check_collisions = false }] *)
val default : config

type stats = {
  states : int;  (** distinct configurations visited *)
  transitions : int;  (** steps applied *)
  dedup_hits : int;  (** revisits answered by the seen-set *)
  sleep_skips : int;  (** enabled transitions pruned by sleep sets *)
  collisions : int;  (** fingerprint/digest disagreements; 0 unless
                         [check_collisions] *)
  violations : (Consensus.Checker.violation * step list) list;
      (** the first violation found, with a schedule reaching it; the
          exploration stops there, so the list has at most one element *)
  truncated : bool;
      (** true when some schedule was cut by [max_depth] / [max_states] —
          [violations = []] is then a bounded verdict, not a proof *)
}

(** [explore config algorithm ~topology ~inputs] — exhaustive up to the
    budgets, stopping at the first violation. Every node knows n but not
    the diameter, as in the paper's model.
    @raise Invalid_argument on input/topology size mismatch, or when the
    topology has more sleepable steps (2|E| + n) than the 62 bits of a
    sleep mask. *)
val explore :
  config ->
  ('s, 'm) Amac.Algorithm.t ->
  topology:Amac.Topology.t ->
  inputs:int array ->
  stats

(** {1 Configuration semantics}

    The untimed configurations {!explore} walks, for clients that run
    their own queries over them ([Lowerbound.Bivalence]'s Sec 3.1
    valid-step searches). {!apply} returns a fresh child and never mutates
    its argument, so one configuration can be extended many times. Safety
    is not checked on this path. *)

type ('s, 'm) context
(** Per-run machinery: algorithm, topology, node contexts, hooks. *)

type ('s, 'm) configuration

(** [context algorithm ~topology ~inputs] — nodes know n but not the
    diameter. @raise Invalid_argument on input/topology size mismatch. *)
val context :
  ('s, 'm) Amac.Algorithm.t ->
  topology:Amac.Topology.t ->
  inputs:int array ->
  ('s, 'm) context

val initial : ('s, 'm) context -> ('s, 'm) configuration

(** [apply ctx cfg step] — the configuration after [step]; a crash also
    counts against the crashes used.
    @raise Invalid_argument on a delivery from a node with nothing in
    flight. *)
val apply :
  ('s, 'm) context -> ('s, 'm) configuration -> step -> ('s, 'm) configuration

type key
(** Compare and hash with the polymorphic [=] and [Hashtbl.hash]. *)

(** [key ctx cfg] — {!explore}'s seen-set key: the hooks' fingerprint, or
    the digest of the marshalled bytes when the algorithm has no hooks.
    Both cover the crashes used so far. *)
val key : ('s, 'm) context -> ('s, 'm) configuration -> key

val decided : ('s, 'm) configuration -> int -> int option
val crashed : ('s, 'm) configuration -> int -> bool

(** [valid_step cfg sender] — Sec 3.1's forced next step of [sender]:
    deliver its message to the smallest live neighbor still owed it, else
    the ack. [None] if [sender] crashed or has nothing in flight. *)
val valid_step : ('s, 'm) configuration -> int -> step option

(** {1 Reachable-configuration sampling}

    A keying-neutral batch of distinct reachable configurations (BFS from
    the initial one, deduplicated by Marshal digest), exposed so
    benchmarks and tests can time / compare the two key and clone
    implementations on exactly the states the explorer visits, without
    the library timing itself. *)

type ('s, 'm) snapshot_set

(** [sample config algorithm ~topology ~inputs ~max_samples] — up to
    [max_samples] distinct configurations, respecting [config]'s depth
    and crash budgets. Violations encountered while sampling are
    ignored. *)
val sample :
  config ->
  ('s, 'm) Amac.Algorithm.t ->
  topology:Amac.Topology.t ->
  inputs:int array ->
  max_samples:int ->
  ('s, 'm) snapshot_set

val sample_size : ('s, 'm) snapshot_set -> int

(** Key every sampled configuration via Marshal + Digest; returns a fold
    of the keys (a sink, so the work cannot be optimised away). *)
val keys_marshal : ('s, 'm) snapshot_set -> int

(** Key every sampled configuration via the fingerprint hooks.
    @raise Invalid_argument if the algorithm has no hooks. *)
val keys_fast : ('s, 'm) snapshot_set -> int

(** Clone every sampled configuration's nodes via a Marshal round-trip. *)
val clones_marshal : ('s, 'm) snapshot_set -> int

(** Clone every sampled configuration's nodes via the clone hook.
    @raise Invalid_argument if the algorithm has no hooks. *)
val clones_fast : ('s, 'm) snapshot_set -> int

(** [(Marshal digest, fingerprint)] per sampled configuration — the raw
    material for the fingerprint soundness property (digest-equal implies
    fingerprint-equal) and for measuring the collision rate.
    @raise Invalid_argument if the algorithm has no hooks. *)
val key_pairs : ('s, 'm) snapshot_set -> (string * int) array

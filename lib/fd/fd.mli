(** ◇P-style failure detector over the abstract MAC layer's ack clock.

    The model has no wall clock: a node observes time only through its own
    acknowledged broadcasts, so every timeout here is counted in {e own
    acks} (~F_ack ticks each). The detector is the heartbeat/silence
    heuristic shared by [Consensus.Wpaxos] and [Smr]:

    - {e heartbeat emission}: the current leader advances its heartbeat
      counter once per ack ({!beat}); every broadcast piggybacks the
      freshest counter known for the leader, flooding it network-wide.
    - {e timeout tracking}: a follower watches one peer at a time (the
      leader) and counts its own acks since that peer's heartbeat last
      advanced ({!tick}); past the patience threshold the peer joins the
      [suspected] set, stamped with the heartbeat it stalled at.
    - {e eventual accuracy (the ◇P part)}: a heartbeat that later advances
      past the suspicion stamp proves the suspicion false, and the peer is
      unsuspected.

    Completeness holds trivially (a crashed peer's heartbeat never
    advances). Accuracy is eventual in the usual partial-synchrony sense:
    once loss windows close and a live leader's heartbeat gaps stay under
    the fixed patience, it is never suspected again.

    The detector is pure protocol state: no closures, no cumulative
    counters (callers that want suspicion totals count the {!tick} /
    {!observe} verdicts themselves), so states embedding a [t] stay
    Marshal-keyable and {!fingerprint} covers every field.

    Its table is one flat open-addressed int array keyed by node id (any
    int: ids need not be dense or non-negative), three ints per known
    node: the id, the largest heartbeat seen and the suspicion stamp. A
    running count of suspected peers makes {!stats} O(1), and {!clone}
    copies the one array. {!hb}, {!suspected}, {!observe} and {!tick} are
    O(1) and allocate nothing. {!fingerprint} folds the (id, heartbeat)
    and (id, stamp) pairs as lists sorted by id, so it does not depend on
    the table's layout or insertion history. *)

type t

(** What {!observe} learned from an incoming heartbeat. *)
type verdict =
  | Fresh  (** the heartbeat advanced *)
  | Fresh_cleared
      (** the heartbeat advanced past a suspicion stamp: false suspicion,
          peer unsuspected *)
  | Stale  (** not news — at or below the largest heartbeat already seen *)

(** One ack of silence accounted to the watched peer. *)
type tick_verdict =
  | Ok
  | Suspect  (** silence just crossed the peer's patience: now suspected *)

(** Live-readable detector gauges (no cumulative counters — see above). *)
type stats = {
  suspected_now : int;  (** current size of the suspected set *)
  watched : int;  (** the peer whose silence is being timed *)
  silence : int;  (** own acks since the watched peer's heartbeat advanced *)
  patience_now : int;  (** the patience, in own acks *)
}

(** [create ~patience ~me ()] — a detector for node [me].

    @param patience own-ack silence budget before suspicion, the same for
      every peer (wPAXOS uses [4n + 16]).
    @raise Invalid_argument if [patience < 1]. *)
val create : patience:int -> me:int -> unit -> t

(** Advance own heartbeat by one (leader, once per ack); returns the new
    value. *)
val beat : t -> int

(** Largest heartbeat seen for a node (own included); 0 if never heard. *)
val hb : t -> int -> int

(** Record a relayed heartbeat observation. *)
val observe : t -> peer:int -> hb:int -> verdict

(** Start timing [peer] (the new leader): resets the silence count. *)
val watch : t -> peer:int -> unit

(** One own ack of silence against [peer]. If [peer] differs from the
    currently watched peer, the watch moves (silence resets) first. *)
val tick : t -> peer:int -> tick_verdict

val suspected : t -> int -> bool

(** Best (largest-id) unsuspected candidate among [base] and every peer a
    heartbeat was seen from, filtered by [eligible]. Returns [base] when no
    heard-from peer qualifies — pass a negative [base] to detect "no
    eligible candidate at all". *)
val candidate : t -> base:int -> eligible:(int -> bool) -> int

val stats : t -> stats

(** Fingerprint/clone hooks, for embedding in an algorithm state's own
    [Algorithm.hooks] (see {!Amac.Fingerprint}). *)
val fingerprint : t -> Amac.Fingerprint.t -> Amac.Fingerprint.t

val clone : t -> t

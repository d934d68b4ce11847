(** The wPAXOS support services (Sec 4.2, Algs 2–5), written once for
    {!Wpaxos}, the replicated log [Smr] and the {!Flood_paxos} baseline.

    A node's services are one {!t}: leader election Ω over {!Fd} (Alg 2),
    Lamport-stamped changes (Alg 3), the trees of {!Tree} (Alg 4), the
    response queue routed up the leader's tree, the [sending] flag
    (Alg 5) and the ack-clocked hardening counters. A protocol keeps its
    own components and its proposer, acceptor and learner logic. A step
    returns whether the protocol's own follow-up is due rather than calling
    back into it; the few that take a function (a merge, an emit, a compose,
    a rank, an id count) are passed the protocol's top-level ones, so the
    event path builds no closure. wPAXOS and flood-paxos also share the
    single-decree proposer and acceptor ({!paxos}), which differ only in
    how votes are tallied. Nothing here allocates at module
    initialisation. *)

(** An acceptor response waiting in the outgoing queue: the proposer it
    answers ([target]), the proposal number, and the protocol's payload.
    The next hop is resolved when the entry is dequeued, so routing always
    uses the freshest parent pointer. *)
type 'b entry = { target : int; pno : Paxos_types.pno; body : 'b }

type 'b t = {
  me : int;
  n : int;
  mutable omega : int;  (** Alg 2: the leader estimate *)
  mutable leader_q : int option;
  mutable lamport : int;  (** Alg 3: Lamport clock *)
  mutable last_change : int * int;
      (** largest (counter, origin) stamp seen; (-1,-1) = -inf *)
  mutable change_q : (int * int) option;
  tree : Tree.t;  (** Alg 4 *)
  mutable response_q : 'b entry list;
  mutable sending : bool;  (** Alg 5: a broadcast awaits its ack *)
  fd : Fd.t;
  mutable idle_acks : int;  (** acks since the last tree refresh *)
  mutable next_refresh : int;  (** tree-refresh backoff, 4 → 64 acks *)
  mutable progress_silence : int;  (** leader acks since counted progress *)
  mutable next_retry : int;  (** re-proposal backoff, in acks *)
  retry_start : int;  (** [2n + 8] *)
  retry_cap : int;  (** [16 * retry_start] *)
  mutable retries_left : int;  (** re-proposal budget per leadership epoch *)
  mutable patience_left : int;  (** heartbeat budget; refilled on progress *)
}

(** [create ~me ~n ~omega ~patience] — services for node [me] that start
    out following [omega] (watched by a detector of the given patience
    when it is not [me]). *)
val create : me:int -> n:int -> omega:int -> patience:int -> 'b t

(** Deep copy; the function copies a queued entry's payload. *)
val clone : ('b -> 'b) -> 'b t -> 'b t

(** {2 Patience and leadership epochs} *)

(** Refill the heartbeat budget (observable progress). *)
val refill : 'b t -> unit

(** A response was counted: reset the re-proposal timer and refill. *)
val progress : 'b t -> unit

(** A change notification reached the leader: restore the re-proposal
    budget and backoff. *)
val open_epoch : 'b t -> unit

(** {2 Leader election (Alg 2), change (Alg 3), trees (Alg 4)} *)

(** The shared part of ONLEADERCHANGE: adopt [id], queue its
    announcement, prune the response queue, watch [id], refill. *)
val elect : 'b t -> int -> unit

(** A heartbeat for [id] arrived. A fresh one is relayed when [id] is the
    leader, and one that clears a suspicion refills. Always [Stale] for
    the node's own id. *)
val observe : 'b t -> id:int -> hb:int -> Fd.verdict

(** ONCHANGE: a fresh local stamp, queued for flooding. *)
val local_change : 'b t -> unit

(** A flooded stamp arrived: joins the Lamport clock, and [true] when the
    stamp is larger than every one seen (ordered by counter, then origin),
    in which case it is recorded, queued and the budget refilled. *)
val on_change : 'b t -> counter:int -> origin:int -> bool

(** A search message arrived: [true] when it shortened the route to the
    current leader, which counts as a change (DESIGN.md deviation 2). *)
val on_search : 'b t -> root:int -> hops:int -> sender:int -> bool

(** {2 Response queue} *)

(** [enqueue sv ~merge ~target ~pno body] merges [body] into the first
    entry for the same target and proposal number that [merge existing
    body] accepts (it returns [true] after folding [body] in), else
    appends a new entry. Then it keeps the queue invariant (Sec 4.2.1):
    only entries for the current leader's largest proposal number stay,
    as they also do when {!elect} changes the leader. *)
val enqueue :
  'b t -> merge:('b -> 'b -> bool) -> target:int -> pno:Paxos_types.pno ->
  'b -> unit

(** Remove the first entry whose target has a parent in the tree and
    return [emit parent entry]; unroutable entries stay queued. *)
val dequeue : 'b t -> emit:(int -> 'b entry -> 'c) -> 'c option

(** {2 Hardened ack tick}

    Run in this order on an ack, while the protocol has work and
    [patience_left > 0]. *)

(** Spend one unit of patience; the leader beats, a follower times the
    leader. [true] when the leader was just suspected. *)
val beat : 'b t -> bool

(** Queue a heartbeat; every [next_refresh] acks (doubling from 4 to 64)
    re-advertise the route to the leader and return [true]. *)
val refresh : 'b t -> bool

(** At the leader, count an ack without counted progress; [true] when the
    backoff (doubling from [retry_start] to [retry_cap]) expired and a
    retry of the epoch's budget was spent. *)
val retry_due : 'b t -> bool

(** {2 Broadcast service (Alg 5)} *)

(** [maybe_send sv compose st] broadcasts [compose st] unless a broadcast
    awaits its ack or there is nothing to send. *)
val maybe_send : 'b t -> ('s -> 'm list) -> 's -> 'm list Amac.Algorithm.action list

(** Components in the order the receive handler applies them: a stable
    sort by [rank], and the list itself when it is already in that
    order. *)
val in_rank_order : rank:('c -> int) -> 'c list -> 'c list

(** Ids a message carries: the sum of [ids] over its components. *)
val msg_ids : ids:('c -> int) -> 'c list -> int

(** {2 Single-decree PAXOS} *)

(** Lemma 4.2 conservation accounting, shared by a run's nodes: for every
    proposition, the count the proposer accumulates never exceeds the
    number of acceptors that generated an affirmative response. *)
module Instrument : sig
  type t

  val create : unit -> t

  (** [violations t] lists propositions for which counted > generated —
      always [] unless aggregation is broken. Each entry is
      [(pno, round, generated, counted)]. *)
  val violations : t -> (Paxos_types.pno * Paxos_types.round * int * int) list

  (** [max_tag t] — largest proposal-number tag any acceptor responded to;
      Lemma 4.4 says this stays polynomial in n. *)
  val max_tag : t -> int
end

(** The proposer's progress: idle, or collecting the votes of a prepare or
    propose round. Votes are tallied as the sum of aggregated counts, or
    as the number of distinct responders. *)
type phase

type paxos = {
  input : int;
  quorum : int;
  distinct : bool;
      (** tally distinct responders (flood-paxos) instead of summing
          aggregated counts (wPAXOS) *)
  instrument : Instrument.t option;
  mutable max_tag : int;
  mutable phase : phase;
  mutable attempts_left : int;
  mutable proposal_q : Paxos_types.proposer_msg option;
  mutable best_proposal_seen : (Paxos_types.pno * Paxos_types.round) option;
  mutable promised : Paxos_types.pno option;
  mutable accepted : Paxos_types.prior option;
  mutable responded : (Paxos_types.pno * Paxos_types.round) option;
  mutable decision : int option;
  mutable announced : bool;
  mutable decide_q : int option;
}

val paxos :
  input:int -> quorum:int -> distinct:bool -> instrument:Instrument.t option ->
  paxos

val clone_paxos : paxos -> paxos

(** ONCHANGE followed by the proposer's UpdateQ: at the undecided leader,
    open an epoch and generate a fresh proposal. *)
val change : 'b t -> paxos -> unit

(** At the leader: propose afresh (a hardened re-proposal). *)
val generate_proposal : 'b t -> paxos -> unit

(** The proposer's UpdateQ alone, for a stamp {!on_change} already
    queued. *)
val updateq : 'b t -> paxos -> unit

(** ONLEADERCHANGE: {!elect}, stand the proposer down, keep only the new
    leader's proposal queued, and count it as a change. *)
val set_omega : 'b t -> paxos -> int -> unit

(** A flooded proposition arrived. It is queued for forwarding when it is
    the current leader's largest yet; [true] when this acceptor has not
    answered it, which the caller then does with {!acceptor_respond}. *)
val on_proposal : 'b t -> paxos -> Paxos_types.proposer_msg -> bool

(** The acceptor's answer [(round, positive, prior, committed)]. *)
val acceptor_respond :
  paxos -> Paxos_types.proposer_msg ->
  Paxos_types.round * bool * Paxos_types.prior option * Paxos_types.pno option

(** A response addressed to this proposer: [count] votes (wPAXOS, where
    [responder] is ignored) or one vote by [responder] (flood-paxos). *)
val count :
  'b t -> paxos -> pno:Paxos_types.pno -> round:Paxos_types.round ->
  positive:bool -> prior:Paxos_types.prior option ->
  committed:Paxos_types.pno option -> count:int -> responder:int -> unit

(** Learn a decision (the first one wins) and queue it for flooding. *)
val decide : paxos -> int -> unit

(** Wrap up a handler: announce a new decision, then {!maybe_send}. *)
val finish :
  'b t -> paxos -> ('s -> 'm list) -> 's -> 'm list Amac.Algorithm.action list

(** {2 Fingerprint pieces} (in the order the protocols fold them) *)

val fp_pno : Paxos_types.pno -> Amac.Fingerprint.t -> Amac.Fingerprint.t

val fp_prior : Paxos_types.prior -> Amac.Fingerprint.t -> Amac.Fingerprint.t

val fp_round : Paxos_types.round -> Amac.Fingerprint.t -> Amac.Fingerprint.t

val fp_proposer_msg :
  Paxos_types.proposer_msg -> Amac.Fingerprint.t -> Amac.Fingerprint.t

(** omega, leader_q, lamport, last_change, change_q. *)
val fp_services : 'b t -> Amac.Fingerprint.t -> Amac.Fingerprint.t

(** sending, the detector, then the hardening counters. *)
val fp_transport : 'b t -> Amac.Fingerprint.t -> Amac.Fingerprint.t

(** max_tag through responded. *)
val fp_paxos : paxos -> Amac.Fingerprint.t -> Amac.Fingerprint.t

(** decision, announced, decide_q. *)
val fp_decision : paxos -> Amac.Fingerprint.t -> Amac.Fingerprint.t

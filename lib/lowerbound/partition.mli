(** The Ω(D · F_ack) time lower bound, measured (Thm 3.10).

    On a line of diameter D under the max-delay scheduler, information needs
    exactly F_ack per hop, so an endpoint cannot be causally influenced by
    the far half of the line before ⌊D/2⌋ · F_ack — and validity plus
    agreement force any correct algorithm to wait at least that long when
    the two halves start with different values. The run records its causal
    DAG ({!Obs.Provenance}); {!first_influence} folds it forward into, per
    node and origin, the first time the origin's initial state could have
    reached the node. We take when each endpoint is first influenced by any
    node of the opposite half, and compare the algorithm's actual decision
    times against the bound. *)

(** [first_influence dag] is [first] with [first.(node).(origin)] the
    earliest time at which information from [origin]'s boot reached [node]
    through a chain of deliveries, or [None] if it never did; a node is
    influenced by itself from its first [Boot]. A [Deliver] passes on the
    origins its sender had heard of when its [Broadcast] was recorded.
    Nodes are [0 .. max node + 1) over the DAG's vertices. *)
val first_influence : Obs.Provenance.t -> int option array array

type analysis = {
  diameter : int;
  fack : int;
  lower_bound : int;  (** ⌊D/2⌋ · F_ack *)
  endpoint_cross_influence : int;
      (** earliest time either endpoint was influenced by any node of the
          opposite half — always ≥ [lower_bound] under max-delay *)
  first_decision : int;  (** earliest decision by any node *)
  last_decision : int;  (** the run's consensus latency *)
  ratio : float;  (** last_decision /. lower_bound — the optimality gap *)
  consensus_ok : bool;
}

(** [analyze algorithm ~diameter ~fack ...] runs [algorithm] on the
    (diameter+1)-node line under [Scheduler.max_delay ~fack], halves
    inputs 0/1, provenance recorded; every node knows n.
    @raise Failure if the algorithm fails to decide within [max_time]. *)
val analyze :
  ?max_time:int ->
  ('s, 'm) Amac.Algorithm.t ->
  diameter:int ->
  fack:int ->
  analysis
